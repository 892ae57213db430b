package engine

import (
	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// liveEdge is one transition a subset-automaton state survives: reading the
// graph symbol with id sym leads to set id next.
type liveEdge struct {
	sym  int32
	next int32
}

// liveState is what a kernel needs to know about one set id: whether it
// accepts and the transitions that do not die.
type liveState struct {
	edges []liveEdge
	final bool
	known bool
}

// liveRows resolves each set id of one automaton against one index's symbol
// table, once: the kernels' inner loops then visit only the labels a state
// survives on (typically 1–3 of the alphabet) and never take the shared
// SubsetCache's lock. The rows are keyed by the (automaton, index) pair they
// were resolved for — symbol ids are only meaningful within one index — and
// bind drops them when either changes; within a binding they persist across
// searches, which is what makes a scratch worth handing on.
type liveRows struct {
	c      *automata.SubsetCache
	ix     *graph.Index
	states []liveState // [set id]
	buf    []liveEdge  // backing store the rows are carved from
}

// bind points the rows at (c, ix), keeping them if that is what they were
// resolved for.
func (l *liveRows) bind(c *automata.SubsetCache, ix *graph.Index) {
	if l.c == c && l.ix == ix {
		return
	}
	l.c, l.ix = c, ix
	clear(l.states)
	l.states = l.states[:0]
	l.buf = l.buf[:0]
}

// state returns the resolved view of set id. The pointer is valid until the
// next state call.
func (l *liveRows) state(id int32) *liveState {
	for int(id) >= len(l.states) {
		l.states = append(l.states, liveState{})
	}
	st := &l.states[id]
	if !st.known {
		from := len(l.buf)
		for s := int32(0); s < int32(l.ix.NumSyms()); s++ {
			if next := l.c.Step(id, int32(l.ix.Sym(s))); next != automata.Dead {
				l.buf = append(l.buf, liveEdge{sym: s, next: next})
			}
		}
		// A full slice expression: rows resolved later append past this one,
		// and a reallocated buf leaves it on the old array, still valid.
		*st = liveState{edges: l.buf[from:len(l.buf):len(l.buf)], final: l.c.Final(id), known: true}
	}
	return st
}

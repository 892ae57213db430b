package ecrpq

import (
	"sync"

	"cxrpq/internal/automata"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// compiledEntry bundles a compiled edge NFA with its determinization cache
// and the lazily built reversed automaton. Entries are shared process-wide
// (keyed by printed regex and alphabet), so the subset-construction work
// accumulated by one evaluation — e.g. one branch combination of a
// vstar-free query — is reused by every other evaluation of the same edge
// language, including concurrent ones.
type compiledEntry struct {
	key   string // atomKey of the label and alphabet compiled; the atom store files its facts under it
	nfa   *automata.NFA
	cache *automata.SubsetCache

	revOnce  sync.Once
	revNFA   *automata.NFA
	revCache *automata.SubsetCache

	shapeOnce sync.Once
	shapeVal  *planner.Shape
}

// shape returns the planner's estimation skeleton of the edge NFA, built
// once per entry (it is graph-independent; consumers cross it with a
// database's graph.Stats).
func (e *compiledEntry) shape() *planner.Shape {
	e.shapeOnce.Do(func() { e.shapeVal = planner.ShapeOf(e.nfa) })
	return e.shapeVal
}

// reverse returns the reversed NFA and its subset cache, built on first use.
func (e *compiledEntry) reverse() (*automata.NFA, *automata.SubsetCache) {
	e.revOnce.Do(func() {
		e.revNFA = reverseNFA(e.nfa)
		e.revCache = automata.NewSubsetCache(e.revNFA)
	})
	return e.revNFA, e.revCache
}

// reverseNFA returns an NFA for the reversed language: transitions are
// flipped, a fresh start state ε-moves to the old finals, and the old start
// becomes the single final state.
func reverseNFA(m *automata.NFA) *automata.NFA {
	r := automata.New(m.NumStates() + 1)
	newStart := m.NumStates()
	r.SetStart(newStart)
	for p := 0; p < m.NumStates(); p++ {
		for _, t := range m.Transitions(p) {
			r.AddTr(t.To, t.Label, p)
		}
		if m.IsFinal(p) {
			r.AddTr(newStart, automata.Epsilon, p)
		}
	}
	r.SetFinal(m.Start(), true)
	return r
}

// compiledCap bounds the process-wide cache; on overflow the whole epoch is
// dropped (cheap, and correct because entries are pure caches).
const compiledCap = 4096

var (
	compiledMu  sync.Mutex
	compiledMap = map[string]*compiledEntry{}
)

// atomKey names a classical label over an alphabet: what a compiled automaton
// and every fact of the atom store (atomstore.go) is a function of, besides
// the database.
func atomKey(label xregex.Node, sigma []rune) string {
	return xregex.String(label) + "\x00" + string(sigma)
}

// compiledFor returns the shared compiled entry for the regex over sigma.
func compiledFor(label xregex.Node, sigma []rune) (*compiledEntry, error) {
	key := atomKey(label, sigma)
	compiledMu.Lock()
	if e, ok := compiledMap[key]; ok {
		compiledMu.Unlock()
		return e, nil
	}
	compiledMu.Unlock()

	m, err := xregex.Compile(label, sigma)
	if err != nil {
		return nil, err
	}
	e := &compiledEntry{key: key, nfa: m, cache: automata.NewSubsetCache(m)}
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if old, ok := compiledMap[key]; ok { // raced with another compiler
		return old, nil
	}
	if len(compiledMap) >= compiledCap {
		compiledMap = map[string]*compiledEntry{}
	}
	compiledMap[key] = e
	return e, nil
}

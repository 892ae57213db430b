package ecrpq

import (
	"sync"

	"cxrpq/internal/automata"
	"cxrpq/internal/xregex"
)

// Atom is a classical label L over an alphabet Σ — the unit every evaluation
// of the paper bottoms out in — with its compiled NFA, the NFA's
// determinization cache and the lazily built reversed automaton. Only
// AtomStore.Atom creates one, and files it in the store entry that holds the
// facts of L on the database: callers hand the value around instead of
// re-deriving it from the label, so the subset-construction work one
// evaluation accumulates — e.g. one branch combination of a vstar-free query
// — is reused by every other evaluation of the atom over the database's
// lineage, including concurrent ones. An Atom is a function of (L, Σ) alone:
// it stays valid after its store drops it.
type Atom struct {
	label xregex.Node
	key   string        // the label printed, and Σ: what the store files the atom under
	nfa   *automata.NFA // compiled over Σ
	cache *automata.SubsetCache
	size  int64 // the bytes the NFA is accounted at (atomEntry.size)

	revOnce sync.Once
	rev     *automata.SubsetCache
}

// Subset returns the determinization cache of the label's NFA. A caller that
// tests many words against the atom steps it itself (Start/Step/Final),
// sharing their prefixes and warming it for every other holder of the atom.
func (a *Atom) Subset() *automata.SubsetCache { return a.cache }

// Accepts reports whether the label matches w, through the subset cache.
func (a *Atom) Accepts(w string) bool {
	id := a.cache.Start()
	for _, r := range w {
		if id = a.cache.Step(id, int32(r)); id == automata.Dead {
			return false
		}
	}
	return a.cache.Final(id)
}

// reverse returns the subset cache of the reversed NFA, built on first use.
func (a *Atom) reverse() *automata.SubsetCache {
	a.revOnce.Do(func() { a.rev = automata.NewSubsetCache(reverseNFA(a.nfa)) })
	return a.rev
}

// empty reports whether the label is ∅, which no path matches: it has no
// pair, and is resolved without touching the automata.
func (a *Atom) empty() bool {
	_, ok := a.label.(*xregex.Empty)
	return ok
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

package automata

import "sort"

// Test-only views of the automata: production reads a DFA only through
// Equivalent, and state sets and NFAs only through the subset cache.

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// Step returns the successor of p on the given symbol, or -1 if the symbol
// is not in the alphabet.
func (d *DFA) Step(p int, label int32) int {
	i := sort.Search(len(d.Alphabet), func(i int) bool { return d.Alphabet[i] >= label })
	if i >= len(d.Alphabet) || d.Alphabet[i] != label {
		return -1
	}
	return d.delta[p][i]
}

// Accepts reports whether the DFA accepts the word.
func (d *DFA) Accepts(word []int32) bool {
	p := d.start
	for _, l := range word {
		p = d.Step(p, l)
		if p < 0 {
			return false
		}
	}
	return d.final[p]
}

// Clone returns a deep copy of the NFA.
func (m *NFA) Clone() *NFA {
	c := &NFA{
		adj:   make([][]Tr, len(m.adj)),
		start: m.start,
		final: append([]bool(nil), m.final...),
	}
	for p, ts := range m.adj {
		c.adj[p] = append([]Tr(nil), ts...)
	}
	return c
}

// Contains reports whether p is in the (sorted) set.
func (s StateSet) Contains(p int) bool {
	i := sort.SearchInts(s, p)
	return i < len(s) && s[i] == p
}

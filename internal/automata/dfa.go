package automata

import (
	"fmt"
	"sort"
)

// DFA is a deterministic finite automaton over an explicit alphabet with a
// complete transition function (a dead state is materialized as needed).
type DFA struct {
	Alphabet []int32
	start    int
	final    []bool
	delta    [][]int // delta[state][symbolIndex]
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.delta) }

// Determinize converts the NFA to a complete DFA over the given alphabet
// (which must contain every label used by the automaton; pass nil to use
// the automaton's own label set) via the subset construction.
func (m *NFA) Determinize(alphabet []int32) *DFA {
	if alphabet == nil {
		alphabet = m.Labels()
	} else {
		alphabet = append([]int32(nil), alphabet...)
		sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })
	}
	d := &DFA{Alphabet: alphabet}
	idx := map[string]int{}
	var sets []StateSet
	newState := func(s StateSet) int {
		k := s.Key()
		if i, ok := idx[k]; ok {
			return i
		}
		i := len(sets)
		idx[k] = i
		sets = append(sets, s)
		d.delta = append(d.delta, make([]int, len(alphabet)))
		d.final = append(d.final, m.ContainsFinal(s))
		return i
	}
	start := newState(m.EpsClosure(m.start))
	d.start = start
	for i := 0; i < len(sets); i++ {
		for ai, l := range alphabet {
			next := m.Step(sets[i], l)
			d.delta[i][ai] = newState(next) // empty set becomes the dead state
		}
	}
	return d
}

// Complement returns a DFA accepting the complement language over the DFA's
// alphabet.
func (d *DFA) Complement() *DFA {
	c := &DFA{Alphabet: d.Alphabet, start: d.start, delta: d.delta}
	c.final = make([]bool, len(d.final))
	for i, f := range d.final {
		c.final[i] = !f
	}
	return c
}

// ToNFA converts the DFA back to an NFA.
func (d *DFA) ToNFA() *NFA {
	m := New(d.NumStates())
	m.SetStart(d.start)
	for p := range d.delta {
		m.final[p] = d.final[p]
		for ai, q := range d.delta[p] {
			m.AddTr(p, d.Alphabet[ai], q)
		}
	}
	return m
}

// Equivalent decides L(a) = L(b) over the union of their label sets, by
// checking emptiness of the two difference languages.
func Equivalent(a, b *NFA) bool {
	labels := map[int32]bool{}
	for _, l := range a.Labels() {
		labels[l] = true
	}
	for _, l := range b.Labels() {
		labels[l] = true
	}
	alphabet := make([]int32, 0, len(labels))
	for l := range labels {
		alphabet = append(alphabet, l)
	}
	sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })
	da := a.Determinize(alphabet)
	db := b.Determinize(alphabet)
	if !Intersect(a, db.Complement().ToNFA()).IsEmpty() {
		return false
	}
	return Intersect(b, da.Complement().ToNFA()).IsEmpty()
}

// String renders the DFA compactly for debugging.
func (d *DFA) String() string {
	return fmt.Sprintf("DFA{states: %d, alphabet: %d, start: %d}", d.NumStates(), len(d.Alphabet), d.start)
}

// Package automata implements nondeterministic finite automata over
// int32-encoded labels. It is the shared substrate for classical regular
// expressions (labels are runes), ref-word automata (labels encode variable
// parentheses and references), and the synchronized-product constructions of
// the ECRPQ engine (labels encode symbol tuples).
//
// The paper (Schmid, PODS 2020, §2.2) observes that NFAs are just graph
// databases with a start state and final states, and additionally allow ε as
// an edge label; this package follows that definition.
package automata

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Epsilon is the reserved label for ε-transitions. It is outside the valid
// rune range, so rune-labelled automata can never collide with it.
const Epsilon int32 = -1 << 30

// Tr is a single transition with a label and a target state.
type Tr struct {
	Label int32
	To    int
}

// NFA is a nondeterministic finite automaton. States are dense integers
// 0..NumStates()-1. The zero value is not usable; create automata with New.
type NFA struct {
	adj   [][]Tr
	start int
	final []bool
}

// New returns an empty NFA with n states, start state 0 and no final states.
func New(n int) *NFA {
	if n < 1 {
		n = 1
	}
	return &NFA{adj: make([][]Tr, n), final: make([]bool, n)}
}

// NumStates returns the number of states.
func (m *NFA) NumStates() int { return len(m.adj) }

// AddState adds a fresh state and returns its index.
func (m *NFA) AddState() int {
	m.adj = append(m.adj, nil)
	m.final = append(m.final, false)
	return len(m.adj) - 1
}

// AddTr adds a transition from state p to state q with the given label.
func (m *NFA) AddTr(p int, label int32, q int) {
	m.adj[p] = append(m.adj[p], Tr{Label: label, To: q})
}

// SetStart makes p the start state.
func (m *NFA) SetStart(p int) { m.start = p }

// Start returns the start state.
func (m *NFA) Start() int { return m.start }

// SetFinal marks or unmarks p as a final state.
func (m *NFA) SetFinal(p int, f bool) { m.final[p] = f }

// IsFinal reports whether p is a final state.
func (m *NFA) IsFinal(p int) bool { return m.final[p] }

// Finals returns the sorted list of final states.
func (m *NFA) Finals() []int {
	var fs []int
	for p, f := range m.final {
		if f {
			fs = append(fs, p)
		}
	}
	return fs
}

// Transitions returns the transition slice of state p. The caller must not
// modify the returned slice.
func (m *NFA) Transitions(p int) []Tr { return m.adj[p] }

// NumTransitions returns the total number of transitions.
func (m *NFA) NumTransitions() int {
	n := 0
	for _, ts := range m.adj {
		n += len(ts)
	}
	return n
}

// Labels returns the sorted set of non-ε labels that occur on transitions.
func (m *NFA) Labels() []int32 {
	set := map[int32]bool{}
	for _, ts := range m.adj {
		for _, t := range ts {
			if t.Label != Epsilon {
				set[t.Label] = true
			}
		}
	}
	out := make([]int32, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StateSet is a set of states represented as a sorted slice; it is the
// working representation for subset-style simulations.
type StateSet []int

func newStateSet(states map[int]bool) StateSet {
	s := make(StateSet, 0, len(states))
	for p := range states {
		s = append(s, p)
	}
	sort.Ints(s)
	return s
}

// keyBuf recycles the scratch buffer Key encodes into (the returned string
// is its own allocation either way).
var keyBuf = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// Key returns a canonical string key for use in maps: the uvarint encoding
// of the sorted states, concatenated. Varints are self-delimiting, so
// distinct sets yield distinct keys — far cheaper than the decimal print
// this replaces, which subset constructions pay per discovered set.
func (s StateSet) Key() string {
	bp := keyBuf.Get().(*[]byte)
	b := (*bp)[:0]
	for _, p := range s {
		b = binary.AppendUvarint(b, uint64(p))
	}
	k := string(b)
	*bp = b
	keyBuf.Put(bp)
	return k
}

// EpsClosure returns the ε-closure of the given states as a sorted StateSet.
func (m *NFA) EpsClosure(states ...int) StateSet {
	seen := map[int]bool{}
	stack := append([]int(nil), states...)
	for _, p := range stack {
		seen[p] = true
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.adj[p] {
			if t.Label == Epsilon && !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return newStateSet(seen)
}

// Step returns the ε-closure of the set of states reachable from s by one
// transition labelled l.
func (m *NFA) Step(s StateSet, l int32) StateSet {
	next := map[int]bool{}
	for _, p := range s {
		for _, t := range m.adj[p] {
			if t.Label == l {
				next[t.To] = true
			}
		}
	}
	if len(next) == 0 {
		return nil
	}
	states := make([]int, 0, len(next))
	for p := range next {
		states = append(states, p)
	}
	return m.EpsClosure(states...)
}

// ContainsFinal reports whether the set contains a final state.
func (m *NFA) ContainsFinal(s StateSet) bool {
	for _, p := range s {
		if m.final[p] {
			return true
		}
	}
	return false
}

// Accepts reports whether the automaton accepts the given word of labels.
func (m *NFA) Accepts(word []int32) bool {
	cur := m.EpsClosure(m.start)
	for _, l := range word {
		cur = m.Step(cur, l)
		if len(cur) == 0 {
			return false
		}
	}
	return m.ContainsFinal(cur)
}

// AcceptsString reports whether the automaton (with rune labels) accepts w.
func (m *NFA) AcceptsString(w string) bool {
	rs := []rune(w)
	word := make([]int32, len(rs))
	for i, r := range rs {
		word[i] = int32(r)
	}
	return m.Accepts(word)
}

// IsEmpty reports whether L(M) = ∅, i.e. no final state is reachable.
func (m *NFA) IsEmpty() bool {
	seen := make([]bool, len(m.adj))
	stack := []int{m.start}
	seen[m.start] = true
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.final[p] {
			return false
		}
		for _, t := range m.adj[p] {
			if !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return true
}

// Trim returns an equivalent NFA containing only states that are both
// reachable from the start state and co-reachable from a final state. The
// start state is always kept. Trimming never changes the language.
func (m *NFA) Trim() *NFA {
	n := len(m.adj)
	reach := make([]bool, n)
	stack := []int{m.start}
	reach[m.start] = true
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.adj[p] {
			if !reach[t.To] {
				reach[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	// Reverse reachability from finals.
	radj := make([][]int, n)
	for p, ts := range m.adj {
		for _, t := range ts {
			radj[t.To] = append(radj[t.To], p)
		}
	}
	co := make([]bool, n)
	for p, f := range m.final {
		if f && reach[p] {
			co[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range radj[p] {
			if reach[q] && !co[q] {
				co[q] = true
				stack = append(stack, q)
			}
		}
	}
	keep := make([]int, n)
	cnt := 0
	for p := 0; p < n; p++ {
		if (reach[p] && co[p]) || p == m.start {
			keep[p] = cnt
			cnt++
		} else {
			keep[p] = -1
		}
	}
	out := New(cnt)
	out.SetStart(keep[m.start])
	for p := 0; p < n; p++ {
		if keep[p] < 0 {
			continue
		}
		out.final[keep[p]] = m.final[p] && reach[p]
		for _, t := range m.adj[p] {
			if keep[t.To] >= 0 && reach[p] && co[p] && co[t.To] {
				out.AddTr(keep[p], t.Label, keep[t.To])
			}
		}
	}
	return out
}

// Intersect returns the product automaton accepting L(a) ∩ L(b).
// ε-transitions in either operand are handled by asynchronous product moves.
func Intersect(a, b *NFA) *NFA {
	type pair struct{ p, q int }
	idx := map[pair]int{}
	out := New(1)
	var get func(pr pair) int
	get = func(pr pair) int {
		if i, ok := idx[pr]; ok {
			return i
		}
		var i int
		if len(idx) == 0 {
			i = 0
		} else {
			i = out.AddState()
		}
		idx[pr] = i
		out.SetFinal(i, a.final[pr.p] && b.final[pr.q])
		return i
	}
	startPair := pair{a.start, b.start}
	stack := []pair{startPair}
	get(startPair)
	seen := map[pair]bool{startPair: true}
	for len(stack) > 0 {
		pr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		src := get(pr)
		push := func(np pair, label int32) {
			dst := get(np)
			out.AddTr(src, label, dst)
			if !seen[np] {
				seen[np] = true
				stack = append(stack, np)
			}
		}
		for _, t := range a.adj[pr.p] {
			if t.Label == Epsilon {
				push(pair{t.To, pr.q}, Epsilon)
				continue
			}
			for _, u := range b.adj[pr.q] {
				if u.Label == t.Label {
					push(pair{t.To, u.To}, t.Label)
				}
			}
		}
		for _, u := range b.adj[pr.q] {
			if u.Label == Epsilon {
				push(pair{pr.p, u.To}, Epsilon)
			}
		}
	}
	return out.Trim()
}

// IntersectAll intersects a non-empty list of automata left to right.
func IntersectAll(ms ...*NFA) *NFA {
	if len(ms) == 0 {
		panic("automata: IntersectAll requires at least one automaton")
	}
	cur := ms[0]
	for _, m := range ms[1:] {
		cur = Intersect(cur, m)
	}
	return cur
}

// EnumerateWords returns all accepted words of length at most maxLen, as
// label slices, in length-then-lexicographic order, up to maxCount words
// (maxCount <= 0 means unlimited). It is intended for small automata in tests
// and for the bounded-image candidate enumeration of Theorem 6.
func (m *NFA) EnumerateWords(maxLen, maxCount int) [][]int32 {
	var out [][]int32
	type cfg struct {
		set  StateSet
		word []int32
	}
	labels := m.Labels()
	level := []cfg{{m.EpsClosure(m.start), nil}}
	seenWord := map[string]bool{}
	for length := 0; length <= maxLen; length++ {
		var next []cfg
		for _, c := range level {
			if m.ContainsFinal(c.set) {
				k := fmt.Sprint(c.word)
				if !seenWord[k] {
					seenWord[k] = true
					out = append(out, c.word)
					if maxCount > 0 && len(out) >= maxCount {
						return out
					}
				}
			}
			if length == maxLen {
				continue
			}
			for _, l := range labels {
				ns := m.Step(c.set, l)
				if len(ns) == 0 {
					continue
				}
				w := append(append([]int32(nil), c.word...), l)
				next = append(next, cfg{ns, w})
			}
		}
		// Deduplicate configurations by (word) to avoid exponential blowup
		// from multiple NFA runs over the same word.
		dedup := map[string]int{}
		var merged []cfg
		for _, c := range next {
			k := fmt.Sprint(c.word)
			if i, ok := dedup[k]; ok {
				set := map[int]bool{}
				for _, p := range merged[i].set {
					set[p] = true
				}
				for _, p := range c.set {
					set[p] = true
				}
				merged[i].set = newStateSet(set)
			} else {
				dedup[k] = len(merged)
				merged = append(merged, c)
			}
		}
		level = merged
	}
	return out
}

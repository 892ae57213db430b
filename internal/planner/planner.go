// Package planner is the cost-based query-planning layer of the evaluation
// stack. Every join in the library — the ecrpq evaluator's backtracking
// join, the bounded engine's leaf joins over materialized relations, and
// the Check/witness searches — orders its atoms through this package.
//
// The planner works from cardinality estimates:
//
//   - For an atom given as a compiled NFA, Shape extracts the
//     graph-independent skeleton (first/last symbol sets, ε-acceptance,
//     whether a labelled cycle makes the language infinite) and
//     Shape.Estimate crosses it with per-label graph statistics
//     (graph.Stats): estimated distinct sources come from the first-symbol
//     sets, targets from the last-symbol sets, and the pair count from the
//     first-step fanout — with the dense srcs×tgts default for Σ*-like
//     atoms whose words can be arbitrarily long.
//   - For an atom whose relation is already materialized (the bounded
//     engine's leaf joins), EstimateRel reads the exact counts.
//
// Order runs a greedy join-order search over those estimates, propagating
// bound-variable selectivity: starting from the pre-bound variables it
// repeatedly picks the cheapest next atom (probe for two bound endpoints,
// estimated fanout expansion for one, full relation scan for none) and
// multiplies the running intermediate-row estimate through, so one
// high-fanout atom no longer lands in front of selective atoms just
// because of tie-breaking.
//
// Tuning.Strategy is the one gate that decides, per join, between
// backtracking in that order and the Yannakakis program over a join tree
// (jointree.go); Tuning.Minimize is the containment-based pruning of
// redundant atoms (contain.go). Both hang off the Tuning value so that tests
// can hand an evaluation a baseline; the package itself holds no switch.
package planner

import (
	"math"
	"math/bits"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// Estimate is the planner's cardinality model of one atom's binary
// reachability relation over a database.
type Estimate struct {
	Nodes  int     // |V_D| the relation ranges over
	Pairs  float64 // estimated number of (u, v) pairs
	Srcs   float64 // estimated distinct sources
	Tgts   float64 // estimated distinct targets
	HasEps bool    // ε ∈ L: every node is related to itself
	Exact  bool    // read off a materialized relation, not estimated
}

// Fanout returns the estimated targets per source.
func (e Estimate) Fanout() float64 {
	if e.Srcs <= 0 {
		return 0
	}
	return e.Pairs / e.Srcs
}

// RevFanout returns the estimated sources per target.
func (e Estimate) RevFanout() float64 {
	if e.Tgts <= 0 {
		return 0
	}
	return e.Pairs / e.Tgts
}

// Selectivity returns the estimated probability that a fixed (u, v) pair is
// in the relation.
func (e Estimate) Selectivity() float64 {
	n := float64(e.Nodes)
	if n <= 0 {
		return 0
	}
	s := e.Pairs / (n * n)
	if s > 1 {
		return 1
	}
	return s
}

// Shape is the graph-independent skeleton of an atom's NFA used for
// estimation: which symbols can start and end an accepted word, whether the
// empty word is accepted, and whether a labelled cycle makes the language
// infinite. Shapes depend only on the automaton, so callers holding shared
// compiled entries cache them and cross them with per-database statistics
// via Estimate.
type Shape struct {
	First  []rune // symbols that can start an accepted word (sorted)
	Last   []rune // symbols that can end an accepted word (sorted)
	HasEps bool   // ε accepted
	Loop   bool   // a useful cycle with ≥1 labelled transition exists
}

// ShapeOf extracts the estimation skeleton from an NFA. The automaton is
// trimmed first so only useful states contribute.
func ShapeOf(m *automata.NFA) *Shape {
	t := m.Trim()
	sh := &Shape{}
	start := t.EpsClosure(t.Start())
	sh.HasEps = t.ContainsFinal(start)

	n := t.NumStates()
	// coFinal[p]: a final state is in the ε-closure of p (a word may end
	// right after entering p).
	revEps := make([][]int, n)
	for p := 0; p < n; p++ {
		for _, tr := range t.Transitions(p) {
			if tr.Label == automata.Epsilon {
				revEps[tr.To] = append(revEps[tr.To], p)
			}
		}
	}
	coFinal := make([]bool, n)
	var stack []int
	for p := 0; p < n; p++ {
		if t.IsFinal(p) {
			coFinal[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range revEps[p] {
			if !coFinal[q] {
				coFinal[q] = true
				stack = append(stack, q)
			}
		}
	}

	firstSet := map[rune]bool{}
	for _, p := range start {
		for _, tr := range t.Transitions(p) {
			if tr.Label != automata.Epsilon {
				firstSet[rune(tr.Label)] = true
			}
		}
	}
	lastSet := map[rune]bool{}
	for p := 0; p < n; p++ {
		for _, tr := range t.Transitions(p) {
			if tr.Label != automata.Epsilon && coFinal[tr.To] {
				lastSet[rune(tr.Label)] = true
			}
		}
	}
	sh.First = sortedRunes(firstSet)
	sh.Last = sortedRunes(lastSet)
	sh.Loop = hasLabeledCycle(t)
	return sh
}

func sortedRunes(set map[rune]bool) []rune {
	out := make([]rune, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ { // insertion sort: sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// hasLabeledCycle reports whether the (trimmed) automaton contains a cycle
// traversing at least one non-ε transition, i.e. whether accepted words can
// be arbitrarily long. Reachability is computed per state by BFS; the
// automata are query-sized, so the quadratic bound is immaterial.
func hasLabeledCycle(t *automata.NFA) bool {
	n := t.NumStates()
	reach := make([][]bool, n)
	reachFrom := func(s int) []bool {
		if reach[s] != nil {
			return reach[s]
		}
		seen := make([]bool, n)
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, tr := range t.Transitions(p) {
				if !seen[tr.To] {
					seen[tr.To] = true
					stack = append(stack, tr.To)
				}
			}
		}
		reach[s] = seen
		return seen
	}
	for p := 0; p < n; p++ {
		for _, tr := range t.Transitions(p) {
			if tr.Label == automata.Epsilon {
				continue
			}
			if tr.To == p || reachFrom(tr.To)[p] {
				return true
			}
		}
	}
	return false
}

// Estimate crosses the shape with per-label graph statistics. The model is
// first-order: distinct sources are the union of the first symbols'
// distinct sources (capped at |V|), targets mirror that over last symbols,
// and the pair count extrapolates the first-step fanout — except for atoms
// with a labelled cycle (Σ*-like), whose relation defaults to the dense
// srcs×tgts closure. ε-acceptance adds the identity relation.
func (sh *Shape) Estimate(st *graph.Stats) Estimate {
	n := float64(st.Nodes)
	est := Estimate{Nodes: st.Nodes, HasEps: sh.HasEps}
	var srcs, tgts, firstEdges, firstSrcs float64
	for _, r := range sh.First {
		if ls, ok := st.Label(r); ok {
			srcs += float64(ls.Srcs)
			firstEdges += float64(ls.Edges)
			firstSrcs += float64(ls.Srcs)
		}
	}
	for _, r := range sh.Last {
		if ls, ok := st.Label(r); ok {
			tgts += float64(ls.Tgts)
		}
	}
	srcs = math.Min(srcs, n)
	tgts = math.Min(tgts, n)
	var pairs float64
	if firstSrcs > 0 {
		pairs = srcs * (firstEdges / firstSrcs)
	}
	if sh.Loop {
		pairs = srcs * tgts // words of unbounded length: assume dense closure
	}
	pairs = math.Min(pairs, srcs*tgts)
	if sh.HasEps {
		pairs += n
		srcs, tgts = n, n
	}
	est.Pairs, est.Srcs, est.Tgts = pairs, srcs, tgts
	return est
}

// EstimateNFA is ShapeOf + Shape.Estimate for one-off use.
func EstimateNFA(st *graph.Stats, m *automata.NFA) Estimate {
	return ShapeOf(m).Estimate(st)
}

// Rel is the read surface of a materialized binary relation the planner
// consumes (ecrpq.EdgeRel satisfies it).
type Rel interface {
	NumNodes() int
	Size() int
	Forward(u int) []int
}

// EstimateRel reads the exact cardinalities off a materialized relation:
// pair count from Size, distinct sources from the forward lists and
// distinct targets from a bitset sweep over them (no reverse index is
// forced).
func EstimateRel(r Rel) Estimate {
	n := r.NumNodes()
	est := Estimate{Nodes: n, Exact: true, Pairs: float64(r.Size())}
	words := (n + 63) / 64
	tgtBits := make([]uint64, words)
	srcs := 0
	for u := 0; u < n; u++ {
		vs := r.Forward(u)
		if len(vs) == 0 {
			continue
		}
		srcs++
		for _, v := range vs {
			tgtBits[v/64] |= 1 << (uint(v) % 64)
		}
	}
	tgts := 0
	for _, w := range tgtBits {
		tgts += bits.OnesCount64(w)
	}
	est.Srcs, est.Tgts = float64(srcs), float64(tgts)
	return est
}

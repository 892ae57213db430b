// Package pathsem implements RPQ evaluation under the three path semantics
// discussed in the paper's introduction (§1, citing Losemann & Martens and
// Martens & Trautner, [34–36]): arbitrary paths (the semantics used by
// CXRPQs throughout the paper), simple paths (no repeated node), and trails
// (no repeated edge). Under simple-path and trail semantics even RPQ
// evaluation is NP-hard, which is why the paper — like SPARQL 1.1 — sticks
// to arbitrary paths; this package makes the distinction executable.
package pathsem

import (
	"fmt"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// Semantics selects which paths count as matches.
type Semantics int

const (
	// Arbitrary allows any path (nodes and edges may repeat).
	Arbitrary Semantics = iota
	// Simple allows only paths with no repeated node.
	Simple
	// Trail allows only paths with no repeated edge.
	Trail
)

func (s Semantics) String() string {
	switch s {
	case Arbitrary:
		return "arbitrary"
	case Simple:
		return "simple"
	case Trail:
		return "trail"
	}
	return "unknown"
}

// EvalRPQ computes the pairs (u, v) such that D has a path from u to v
// conforming to the semantics whose label matches the classical regular
// expression rx. Under Arbitrary this is the polynomial product
// construction; under Simple/Trail it is a backtracking search (the problem
// is NP-hard in combined complexity).
func EvalRPQ(db *graph.DB, rx xregex.Node, sem Semantics) (*pattern.TupleSet, error) {
	if !xregex.IsClassical(rx) {
		return nil, fmt.Errorf("pathsem: RPQ labels must be classical regular expressions")
	}
	sigma := xregex.MergeAlphabets(db.Alphabet(), xregex.AlphabetOf(rx))
	m, err := xregex.Compile(rx, sigma)
	if err != nil {
		return nil, err
	}
	out := pattern.NewTupleSet()
	for u := 0; u < db.NumNodes(); u++ {
		for _, v := range reachUnder(db, m, u, sem) {
			out.Add(pattern.Tuple{u, v})
		}
	}
	return out, nil
}

func reachUnder(db *graph.DB, m *automata.NFA, u int, sem Semantics) []int {
	switch sem {
	case Arbitrary:
		return productReach(db, m, u)
	case Simple:
		return restrictedReach(db, m, u, true)
	case Trail:
		return restrictedReach(db, m, u, false)
	}
	return nil
}

// productReach is the standard polynomial NFA×D search.
func productReach(db *graph.DB, m *automata.NFA, u int) []int {
	type cfg struct {
		node int
		set  string
	}
	sets := map[string]automata.StateSet{}
	key := func(s automata.StateSet) string {
		k := s.Key()
		sets[k] = s
		return k
	}
	start := m.EpsClosure(m.Start())
	seen := map[cfg]bool{{u, key(start)}: true}
	queue := []struct {
		node int
		set  automata.StateSet
	}{{u, start}}
	hit := map[int]bool{}
	var hits []int
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if m.ContainsFinal(cur.set) && !hit[cur.node] {
			hit[cur.node] = true
			hits = append(hits, cur.node)
		}
		for _, e := range db.Out(cur.node) {
			next := m.Step(cur.set, int32(e.Label))
			if len(next) == 0 {
				continue
			}
			c := cfg{e.To, key(next)}
			if !seen[c] {
				seen[c] = true
				queue = append(queue, struct {
					node int
					set  automata.StateSet
				}{e.To, next})
			}
		}
	}
	return hits
}

// restrictedReach backtracks over paths that must not repeat nodes
// (simple=true) or edges (simple=false).
func restrictedReach(db *graph.DB, m *automata.NFA, u int, simple bool) []int {
	hit := map[int]bool{}
	usedNodes := map[int]bool{u: true}
	usedEdges := map[[3]int]bool{} // (from, label, to) — multigraph edges by occurrence index
	edgeKey := func(from, idx int) [3]int { return [3]int{from, idx, 0} }

	var dfs func(node int, set automata.StateSet)
	dfs = func(node int, set automata.StateSet) {
		if m.ContainsFinal(set) {
			hit[node] = true
		}
		for idx, e := range db.Out(node) {
			if simple {
				if usedNodes[e.To] {
					continue
				}
			} else {
				if usedEdges[edgeKey(node, idx)] {
					continue
				}
			}
			next := m.Step(set, int32(e.Label))
			if len(next) == 0 {
				continue
			}
			if simple {
				usedNodes[e.To] = true
			} else {
				usedEdges[edgeKey(node, idx)] = true
			}
			dfs(e.To, next)
			if simple {
				delete(usedNodes, e.To)
			} else {
				delete(usedEdges, edgeKey(node, idx))
			}
		}
	}
	dfs(u, m.EpsClosure(m.Start()))
	var hits []int
	for v := range hit {
		hits = append(hits, v)
	}
	return hits
}

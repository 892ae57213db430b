package planner

import (
	"testing"

	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

func shapeFor(t *testing.T, src string, sigma string) *Shape {
	t.Helper()
	n := xregex.MustParse(src)
	m, err := xregex.Compile(n, []rune(sigma))
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return ShapeOf(m)
}

func TestShapeOf(t *testing.T) {
	cases := []struct {
		src         string
		first, last string
		eps, loop   bool
	}{
		{"a", "a", "a", false, false},
		{"ab", "a", "b", false, false},
		{"a|b", "ab", "ab", false, false},
		{"a*", "a", "a", true, true},
		{"(a|b)*", "ab", "ab", true, true},
		{"a?b", "ab", "b", false, false},
		{"ab?", "a", "ab", false, false},
		{"a+c", "a", "c", false, true},
		{"()", "", "", true, false},
	}
	for _, c := range cases {
		sh := shapeFor(t, c.src, "abc")
		if string(sh.First) != c.first || string(sh.Last) != c.last || sh.HasEps != c.eps || sh.Loop != c.loop {
			t.Errorf("%q: shape = first %q last %q eps %v loop %v, want %q %q %v %v",
				c.src, string(sh.First), string(sh.Last), sh.HasEps, sh.Loop, c.first, c.last, c.eps, c.loop)
		}
	}
}

func TestEstimateFromStats(t *testing.T) {
	// 3 a-edges from 2 sources, 1 b-edge; 4 nodes.
	db := graph.MustParse("u a v\nu a w\nv a w\nw b x")
	st := db.Stats()

	a := shapeFor(t, "a", "ab").Estimate(st)
	if a.Srcs != 2 || a.Tgts != 2 || a.Pairs != 3 {
		t.Fatalf("a estimate = %+v", a)
	}
	// Symbol absent from the graph: empty relation.
	z := shapeFor(t, "z", "abz").Estimate(st)
	if z.Pairs != 0 || z.Srcs != 0 {
		t.Fatalf("z estimate = %+v", z)
	}
	// Σ*-like: dense default over all nodes (ε adds the identity).
	any := shapeFor(t, "(a|b)*", "ab").Estimate(st)
	if any.Srcs != 4 || any.Tgts != 4 || !any.HasEps {
		t.Fatalf("sigma* estimate = %+v", any)
	}
	// Dense closure over the 3 sources × 3 targets with out/in edges, plus
	// the 4-node identity from ε.
	if any.Pairs != 13 {
		t.Fatalf("sigma* pairs = %v, want 13", any.Pairs)
	}
}

type sliceRel [][]int

func (r sliceRel) NumNodes() int { return len(r) }
func (r sliceRel) Size() int {
	n := 0
	for _, vs := range r {
		n += len(vs)
	}
	return n
}
func (r sliceRel) Forward(u int) []int {
	if u < 0 || u >= len(r) {
		return nil
	}
	return r[u]
}

func TestEstimateRel(t *testing.T) {
	r := sliceRel{{1, 2}, {2}, nil, nil}
	est := EstimateRel(r)
	if !est.Exact || est.Pairs != 3 || est.Srcs != 2 || est.Tgts != 2 {
		t.Fatalf("estimate = %+v", est)
	}
}

// skewedAtoms models one dense hub atom and one highly selective atom
// sharing the variable y.
func skewedAtoms() []Atom {
	n := 100
	hub := Atom{From: "x", To: "y", Est: Estimate{Nodes: n, Pairs: 1600, Srcs: 40, Tgts: 40}}
	sel := Atom{From: "y", To: "z", Est: Estimate{Nodes: n, Pairs: 1, Srcs: 1, Tgts: 1}}
	return []Atom{hub, sel}
}

func TestCostOrderPrefersSelective(t *testing.T) {
	spec := Order(skewedAtoms(), nil)
	if spec.Order[0] != 1 {
		t.Fatalf("cost order = %v, want the selective atom first", spec.Order)
	}
	if spec.Steps[0].Mode != ModeScan || spec.Steps[1].Mode != ModeBackward {
		t.Fatalf("modes = %v %v", spec.Steps[0].Mode, spec.Steps[1].Mode)
	}
}

func TestOrderBoundPropagation(t *testing.T) {
	// With x pre-bound, expanding the hub forward costs ~40 rows; probing
	// nothing else is available, so the hub must come first now.
	atoms := skewedAtoms()
	spec := Order(atoms, map[string]bool{"x": true, "z": true})
	if spec.Steps[0].Mode == ModeScan {
		t.Fatalf("pre-bound plan must not start with a scan: %+v", spec.Steps)
	}
	// All endpoints bound: everything is a probe.
	spec = Order(atoms, map[string]bool{"x": true, "y": true, "z": true})
	for _, s := range spec.Steps {
		if s.Mode != ModeCheck {
			t.Fatalf("fully bound plan has non-check step %+v", s)
		}
	}
}

// TestStrategyGate pins the one gate: the floor, the gain against the cost
// of building relations that do not exist yet, the lazy / grouped
// exclusions, acyclicity, and what each Tuning field moves.
func TestStrategyGate(t *testing.T) {
	graph := func(skip []bool, edges ...EdgeRef) func() ([]EdgeRef, []bool) {
		return func() ([]EdgeRef, []bool) { return edges, skip }
	}
	xy, yz, zx := EdgeRef{From: "x", To: "y"}, EdgeRef{From: "y", To: "z"}, EdgeRef{From: "z", To: "x"}
	chain, triangle := graph(nil, xy, yz), graph(nil, xy, yz, zx)
	for _, tc := range []struct {
		name   string
		tune   Tuning
		j      Join
		want   Strategy
		cyclic bool // the gate got as far as the join tree and found none
	}{
		{"below the floor", Tuning{}, Join{Cost: 255, Graph: chain}, Backtracking, false},
		{"materialized chain above the floor", Tuning{}, Join{Cost: 256, Graph: chain}, Yannakakis, false},
		{"materialized triangle above the floor", Tuning{}, Join{Cost: 256, Graph: triangle}, Backtracking, true},
		{"unbuilt chain short of the gain", Tuning{}, Join{Cost: 1000, Build: 251, Graph: chain}, Backtracking, false},
		{"unbuilt chain past the gain", Tuning{}, Join{Cost: 1000, Build: 250, Graph: chain}, Yannakakis, false},
		{"unbuilt triangle past the gain", Tuning{}, Join{Cost: 1000, Build: 10, Graph: triangle}, Backtracking, true},
		{"lazy", Tuning{Force: true}, Join{Cost: 1000, Lazy: true, Graph: chain}, Backtracking, false},
		{"groups", Tuning{Force: true}, Join{Cost: 1000, Groups: true, Graph: chain}, Backtracking, false},
		{"every atom skipped", Tuning{Force: true}, Join{Graph: graph([]bool{true, true}, xy, yz)}, Backtracking, false},
		{"skip breaks the cycle", Tuning{}, Join{Cost: 300, Graph: graph([]bool{false, false, true}, xy, yz, zx)}, Yannakakis, false},
		{"forced: no floor", Tuning{Force: true}, Join{Cost: 1, Graph: chain}, Yannakakis, false},
		{"forced: no gain", Tuning{Force: true}, Join{Cost: 1, Build: 1e9, Graph: chain}, Yannakakis, false},
		{"acyclic path off", Tuning{NoAcyclic: true}, Join{Cost: 300, Graph: chain}, Backtracking, false},
		{"acyclic path off, unbuilt", Tuning{NoAcyclic: true, Force: true}, Join{Cost: 300, Build: 1, Graph: chain}, Backtracking, false},
	} {
		before := Stats().CyclicFallback
		got, tree := tc.tune.Strategy(tc.j)
		if got != tc.want || (tree != nil) != (got == Yannakakis) {
			t.Errorf("%s: %v (tree %v), want %v", tc.name, got, tree != nil, tc.want)
		}
		if counted := Stats().CyclicFallback != before; counted != tc.cyclic {
			t.Errorf("%s: cyclic fallback counted = %v, want %v", tc.name, counted, tc.cyclic)
		}
	}
}

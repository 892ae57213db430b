package workload

import (
	"testing"

	"cxrpq/internal/graph"
)

func TestRandomDeterministic(t *testing.T) {
	a := Random(5, 10, 20, "ab")
	b := Random(5, 10, 20, "ab")
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	if a.NumNodes() != 10 || a.NumEdges() != 20 {
		t.Fatalf("nodes=%d edges=%d", a.NumNodes(), a.NumEdges())
	}
	c := Random(6, 10, 20, "ab")
	_ = c // different seed is fine either way; just must not panic
}

func TestGenealogy(t *testing.T) {
	g := Genealogy(1, 20)
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	hasP, hasS := false, false
	for _, r := range g.Alphabet() {
		if r == 'p' {
			hasP = true
		}
		if r == 's' {
			hasS = true
		}
	}
	if !hasP || !hasS {
		t.Fatal("genealogy must have p and s arcs")
	}
}

func TestMessageNetwork(t *testing.T) {
	g := MessageNetwork(2, 10, "ab", 2, 3, 2)
	if g.NumNodes() <= 10 {
		t.Fatal("hidden-pair nodes missing")
	}
	// hidden pair paths must exist: h0_a reaches h0_b by a 3-message path
	a, ok := g.Lookup("h0_a")
	if !ok {
		t.Fatal("h0_a missing")
	}
	m, ok := g.Lookup("h0_m")
	if !ok {
		t.Fatal("h0_m missing")
	}
	found := false
	for _, w := range g.PathWordsBetween(a, m, 6) {
		if len(w) == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("hidden 6-step path to mutual contact missing")
	}
}

// spells reports whether some path from u to v is labelled word.
func spells(d *graph.DB, u int, word string, v int) bool {
	cur := map[int32]bool{int32(u): true}
	for _, r := range word {
		next := map[int32]bool{}
		for p := range cur {
			for _, q := range d.Index().OutByLabel(int(p), r) {
				next[q] = true
			}
		}
		cur = next
	}
	return cur[int32(v)]
}

func TestPathAndCycle(t *testing.T) {
	p := Path("ab", 3)
	s, _ := p.Lookup("s")
	tt, _ := p.Lookup("t")
	if !spells(p, s, "ababab", tt) {
		t.Fatal("path mislabelled")
	}
	c := Cycle("abc", 6)
	if c.NumNodes() != 6 || c.NumEdges() != 6 {
		t.Fatalf("cycle size wrong: %d/%d", c.NumNodes(), c.NumEdges())
	}
}

func TestLayered(t *testing.T) {
	g := Layered(3, 4, 3, "ab")
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 3*3*2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

// Every RandomQuery template must parse and validate for any seed, and the
// generator must be deterministic per seed (the fuzz harness replays seeds).
func TestRandomQueryValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		for _, finite := range []bool{true, false} {
			q1 := RandomQuery(NewRNG(seed), finite)
			q2 := RandomQuery(NewRNG(seed), finite)
			if err := q1.Validate(); err != nil {
				t.Fatalf("seed %d finite=%v: %v", seed, finite, err)
			}
			if q1.Pattern.String() != q2.Pattern.String() {
				t.Fatalf("seed %d finite=%v: nondeterministic generator", seed, finite)
			}
		}
	}
}

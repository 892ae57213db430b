package ecrpq

import (
	"testing"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// TestInvertedTableMatchesSweep: the backward table the store inverts from a
// complete forward table equals a backward kernel sweep — a search of the
// reversed automaton from every node — over random graphs and labels,
// ε-accepting ones included, and after windows of arrivals, inserts and
// removals: a carried inversion settles to the sweep of the new graph, also
// when it went unread across several moves. Reading the inversion runs no
// kernel call.
func TestInvertedTableMatchesSweep(t *testing.T) {
	t.Parallel()
	labels := []string{"a", "(ab)*", "b?", "a*b", "(a|b)+", "ba+", "ab|ba"}
	for seed := int64(1); seed <= 4; seed++ {
		db := randomDB(seed, 20+5*int(seed), 50+10*int(seed), "ab")
		r := &testRNG{s: uint64(seed) * 7919}
		var pending []graph.DeltaEdge
		for step := 0; step < 6; step++ {
			s := Atoms(db)
			for li, src := range labels {
				if step > 0 && (step+li)%3 == 0 {
					continue // carried unread across this move
				}
				a := atomOf(t, s, xregex.MustParse(src), carrySigma)
				p := leafAtom(s, a, nil)
				if p.complete() == nil {
					t.Fatalf("seed %d step %d %s: no complete forward table", seed, step, src)
				}
				kernel := s.Stats().Kernel
				if !p.adopt(false) {
					t.Fatalf("seed %d step %d %s: the complete forward table answered no backward table", seed, step, src)
				}
				if st := s.Stats(); st.Kernel != kernel {
					t.Fatalf("seed %d step %d %s: reading the inversion ran the kernel: %+v, was %+v", seed, step, src, st.Kernel, kernel)
				}
				for v := 0; v < db.NumNodes(); v++ {
					got, _ := p.rev.tab.get(v)
					if want := refRow(db, a, v, false); !rowEqual(got, want) {
						t.Fatalf("seed %d step %d %s: inverted row of %d is %v, a backward sweep %v", seed, step, src, v, got, want)
					}
				}
			}
			pending = randomMove(t, db, r, step, pending)
		}
	}
}

// TestColdSetIndexesNothing: a cold Set on an edge whose endpoints are both
// read searches the rows the store lacks, files them as a complete table and
// adopts it; it indexes none of them into the probe memo, which reads the
// table in place.
func TestColdSetIndexesNothing(t *testing.T) {
	t.Parallel()
	db := randomDB(5, 60, 150, "ab")
	g := pattern.MustParseQuery("ans(x, y)\nx y : a(a|b)*")
	l := NewLeaf(Atoms(db), g, Join{})
	if ok, err := l.Set(0, atomOf(t, Atoms(db), g.Edges[0].Label, db.Alphabet())); err != nil || !ok {
		t.Fatalf("Set = %v, %v; want a non-empty atom", ok, err)
	}
	fwd := &l.ev.atoms[0].fwd
	if fwd.tab.span == nil {
		t.Fatal("the leaf did not adopt the complete table")
	}
	if fwd.at != nil || fwd.rows != nil {
		t.Fatalf("the cold Set indexed %d rows (an index of %d nodes) into the memo", len(fwd.rows), len(fwd.at))
	}
	for u := range db.NumNodes() {
		if got, _ := fwd.tab.get(u); !rowEqual(got, refRow(db, l.ev.atoms[0].atom, u, true)) {
			t.Fatalf("row of %d is %v, a sweep %v", u, got, refRow(db, l.ev.atoms[0].atom, u, true))
		}
	}
}

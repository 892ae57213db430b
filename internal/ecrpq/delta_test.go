package ecrpq

import (
	"fmt"
	"testing"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// testRNG is a tiny SplitMix-style generator (workload.RNG would import
// cxrpq and close an import cycle with this package).
type testRNG struct{ s uint64 }

func (r *testRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomDB mirrors workload.Random: named nodes plus random labelled edges.
func randomDB(seed int64, nodes, edges int, alphabet string) *graph.DB {
	r := &testRNG{s: uint64(seed)*2654435761 + 1}
	d := graph.New()
	for i := 0; i < nodes; i++ {
		d.Node(fmt.Sprintf("n%d", i))
	}
	al := []rune(alphabet)
	for i := 0; i < edges; i++ {
		d.AddEdge(r.intn(nodes), al[r.intn(len(al))], r.intn(nodes))
	}
	return d
}

// relEqual compares two relations row by row.
func relEqual(a, b *EdgeRel) bool {
	if a.NumNodes() != b.NumNodes() || a.Size() != b.Size() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		av, bv := a.Forward(u), b.Forward(u)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// TestRelCacheApplyDelta drives insert-only deltas through a populated
// relation cache and checks every maintained relation — retained,
// node-grown and frontier-extended — against a from-scratch RelationFor on
// the mutated database.
func TestRelCacheApplyDelta(t *testing.T) {
	labels := []xregex.Node{
		xregex.MustParse("a(b|c)*"), // touched by a/b/c deltas
		xregex.MustParse("c+"),      // disjoint from pure-a/b deltas
		xregex.MustParse("(a|b)?"),  // ε-accepting: new nodes gain identity rows
		xregex.MustParse("b*"),      // ε-accepting and touched by b deltas
		xregex.AnyWord(),            // universal: always extended
		&xregex.Empty{},             // empty language: always retained
	}
	for seed := int64(0); seed < 12; seed++ {
		db := randomDB(seed, 8, 20, "abc")
		sigma := []rune("abc")
		c := NewRelCache(0)
		for _, l := range labels {
			if _, err := c.For(db, l, sigma, engine.ReachOpts{}); err != nil {
				t.Fatalf("seed %d: For: %v", seed, err)
			}
		}
		r := &testRNG{s: uint64(seed^0x5ca1ab1e)*2654435761 + 1}
		for step := 0; step < 4; step++ {
			rev := db.Revision()
			// Random insert-only delta over the existing alphabet, sometimes
			// interning a fresh node.
			var delta graph.Delta
			for i := 0; i <= r.intn(3); i++ {
				from := db.Name(r.intn(db.NumNodes()))
				to := db.Name(r.intn(db.NumNodes()))
				if r.intn(4) == 0 {
					to = "fresh" + string(rune('a'+r.intn(26))) + db.Name(0)
				}
				delta.Add = append(delta.Add, graph.DeltaEdge{From: from, Label: []rune("abc")[r.intn(3)], To: to})
			}
			info, err := db.ApplyDelta(delta)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta: %v", seed, step, err)
			}
			if info.FromRev != rev || !info.InsertOnly() {
				t.Fatalf("seed %d step %d: unexpected info %+v", seed, step, info)
			}
			if len(info.NewLabels) > 0 {
				t.Fatalf("seed %d step %d: delta over abc reported new labels %q", seed, step, string(info.NewLabels))
			}
			retained, extended, err := c.ApplyDelta(db, info)
			if err != nil {
				t.Fatalf("seed %d step %d: RelCache.ApplyDelta: %v", seed, step, err)
			}
			if retained+extended != len(labels) {
				t.Fatalf("seed %d step %d: %d retained + %d extended != %d entries",
					seed, step, retained, extended, len(labels))
			}
			for _, l := range labels {
				got, err := c.For(db, l, sigma, engine.ReachOpts{}) // must hit: maintenance keeps entries live
				if err != nil {
					t.Fatal(err)
				}
				want, err := RelationFor(db, l, sigma)
				if err != nil {
					t.Fatal(err)
				}
				if !relEqual(got, want) {
					t.Fatalf("seed %d step %d: maintained relation for %s diverged (size %d, want %d)",
						seed, step, xregex.String(l), got.Size(), want.Size())
				}
			}
		}
		st := c.Stats()
		if st.Retained == 0 || st.Extended == 0 {
			t.Fatalf("seed %d: expected both retained and extended entries, got %+v", seed, st)
		}
	}
}

// TestRelCacheDeltaDisjointRetains pins the classification: a delta touching
// only label c must retain (not recompute) relations whose alphabet is
// disjoint, and must frontier-extend the ones it touches.
func TestRelCacheDeltaDisjointRetains(t *testing.T) {
	db := graph.MustParse("u a v\nv b w\nw c u")
	sigma := []rune("abc")
	c := NewRelCache(0)
	ab := xregex.MustParse("(a|b)+")
	cc := xregex.MustParse("c+")
	for _, l := range []xregex.Node{ab, cc} {
		if _, err := c.For(db, l, sigma, engine.ReachOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: "u", Label: 'c', To: "w"}}})
	if err != nil {
		t.Fatal(err)
	}
	retained, extended, err := c.ApplyDelta(db, info)
	if err != nil {
		t.Fatal(err)
	}
	if retained != 1 || extended != 1 {
		t.Fatalf("retained=%d extended=%d, want 1/1", retained, extended)
	}
	got, _ := c.For(db, cc, sigma, engine.ReachOpts{})
	want, _ := RelationFor(db, cc, sigma)
	if !relEqual(got, want) {
		t.Fatal("extended c+ relation diverged")
	}
	if _, ok := got.has(0, 2); !ok { // u -c-> w is the new pair
		t.Fatal("extended relation is missing the new pair")
	}
}

// TestLabelAlphabet pins the conservative classification of label ASTs.
func TestLabelAlphabet(t *testing.T) {
	cases := []struct {
		src       string
		syms      string
		universal bool
	}{
		{"a(b|c)*", "abc", false},
		{"[ab]d?", "abd", false},
		{"[^a]", "", true},
		{".*", "", true},
		{"$x{a}b", "ab", true}, // variables: conservative
	}
	for _, tc := range cases {
		syms, universal := labelAlphabet(xregex.MustParse(tc.src))
		if universal != tc.universal {
			t.Fatalf("%s: universal=%v, want %v", tc.src, universal, tc.universal)
		}
		for _, r := range tc.syms {
			if !syms[r] {
				t.Fatalf("%s: missing symbol %c", tc.src, r)
			}
		}
	}
}

package ecrpq

import (
	"fmt"
	"slices"
	"strings"
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
	return a.size == b.size && slices.EqualFunc(a.fwd, b.fwd, slices.Equal[[]int])
}

// leafAtom is a's probe atom as a leaf join reads it: unranked, over s,
// under bud.
func leafAtom(s *AtomStore, a *Atom, bud *engine.Budget) *probeAtom {
	return &probeAtom{ev: &evaluator{db: s.db, ix: s.db.Index(), store: s, bud: bud, lazy: true}, atom: a}
}

// tableRel resolves the complete forward table of a through s under bud, as
// a leaf join does (probeAtom.complete), and returns it as a relation.
func tableRel(s *AtomStore, a *Atom, bud *engine.Budget) (*EdgeRel, error) {
	p := leafAtom(s, a, bud)
	if p.complete() == nil {
		return nil, engine.ErrCanceled
	}
	r := &EdgeRel{fwd: make([][]int, s.db.NumNodes())}
	for u := range r.fwd {
		r.fwd[u], _ = p.probe(u, true)
		r.size += len(r.fwd[u])
	}
	return r, nil
}

// TestRelCacheApplyDelta drives insert-only deltas under a populated atom
// store and checks every maintained relation — retained, node-grown and
// frontier-extended — against a from-scratch RelationFor on the mutated
// database.
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
		for _, l := range labels {
			if _, err := tableRel(Atoms(db), atomOf(t, Atoms(db), l, sigma), nil); err != nil {
				t.Fatalf("seed %d: complete table: %v", seed, err)
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
			// The first to ask after the mutation carries the store; its entries
			// settle as they are read.
			before := Atoms(db).Stats()
			if before.DeltaPasses != uint64(step)+1 || before.Stale != len(labels) || before.Retained+before.Extended != uint64(step*len(labels)) {
				t.Fatalf("seed %d step %d: %d passes, %d stale, %d retained + %d extended; want %d passes, %d stale, %d settled",
					seed, step, before.DeltaPasses, before.Stale, before.Retained, before.Extended, step+1, len(labels), step*len(labels))
			}
			for _, l := range labels {
				got, err := tableRel(Atoms(db), atomOf(t, Atoms(db), l, sigma), nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RelationFor(db, l, sigma)
				if err != nil {
					t.Fatal(err)
				}
				if !relEqual(got, want) {
					t.Fatalf("seed %d step %d: maintained relation for %s diverged (size %d, want %d)",
						seed, step, xregex.String(l), got.size, want.size)
				}
			}
			if st := Atoms(db).Stats(); st.Stale != 0 || st.Retained+st.Extended != uint64((step+1)*len(labels)) {
				t.Fatalf("seed %d step %d: %d stale, %d settled after every read; want 0, %d", seed, step, st.Stale, st.Retained+st.Extended, (step+1)*len(labels))
			}
		}
		st := Atoms(db).Stats()
		if st.Retained == 0 || st.Extended == 0 {
			t.Fatalf("seed %d: expected both retained and extended entries, got %+v", seed, st)
		}
		if st.Misses != uint64(len(labels)) {
			t.Fatalf("seed %d: %d misses for %d labels: maintenance must keep the entries live", seed, st.Misses, len(labels))
		}
	}
}

// TestRelCacheDeltaDisjointRetains pins the classification: a delta touching
// only label c must retain (not recompute) relations whose alphabet is
// disjoint, and must frontier-extend the ones it touches.
func TestRelCacheDeltaDisjointRetains(t *testing.T) {
	db := graph.MustParse("u a v\nv b w\nw c u")
	sigma := []rune("abc")
	ab := xregex.MustParse("(a|b)+")
	cc := xregex.MustParse("c+")
	for _, l := range []xregex.Node{ab, cc} {
		if _, err := tableRel(Atoms(db), atomOf(t, Atoms(db), l, sigma), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: "u", Label: 'c', To: "w"}}}); err != nil {
		t.Fatal(err)
	}
	if st := Atoms(db).Stats(); st.Retained != 0 || st.Extended != 0 || st.Stale != 2 {
		t.Fatalf("retained=%d extended=%d stale=%d before a read, want 0/0/2", st.Retained, st.Extended, st.Stale)
	}
	if _, err := tableRel(Atoms(db), atomOf(t, Atoms(db), ab, sigma), nil); err != nil {
		t.Fatal(err)
	}
	got, _ := tableRel(Atoms(db), atomOf(t, Atoms(db), cc, sigma), nil)
	if st := Atoms(db).Stats(); st.Retained != 1 || st.Extended != 1 {
		t.Fatalf("retained=%d extended=%d, want 1/1", st.Retained, st.Extended)
	}
	want, _ := RelationFor(db, cc, sigma)
	if !relEqual(got, want) {
		t.Fatal("extended c+ relation diverged")
	}
	if !slices.Contains(got.Forward(0), 2) { // u -c-> w is the new pair
		t.Fatal("extended relation is missing the new pair")
	}
}

// TestLabelAlphabet pins which deltas touch a relation: those over a label of
// its automaton's transitions, with classes — negated ones too — expanded over
// the alphabet it was compiled for.
func TestLabelAlphabet(t *testing.T) {
	for _, tc := range []struct{ src, sigma, touching, not string }{
		{"a(b|c)*", "abcd", "abc", "d"},
		{"[ab]d?", "abcd", "abd", "c"},
		{"[^a]", "abc", "bc", "a"},
		{".*", "ab", "ab", "c"},
	} {
		e := &atomEntry{atom: atomOf(t, Atoms(graph.MustParse("")), xregex.MustParse(tc.src), []rune(tc.sigma))}
		for _, r := range tc.touching + tc.not {
			if touched := e.touchedBy([]rune{r}); touched != strings.ContainsRune(tc.touching, r) {
				t.Fatalf("%s over %s: touched by %c = %v", tc.src, tc.sigma, r, touched)
			}
		}
	}
	if (&atomEntry{atom: atomOf(t, Atoms(graph.MustParse("")), &xregex.Empty{}, []rune("a"))}).touchedBy([]rune("a")) {
		t.Fatal("a delta touched ∅")
	}
}

package ecrpq

// Differential tests of relation construction: the relations materialized
// through the batched kernel (RelationFor and the atom store's
// frontier-extension path, engine.ReachBatchEx) must equal the per-source
// engine.Reach results on the same graph, including after insert-only deltas.
// The test names predate the removal of the sharded kernel.

import (
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// rowEqual compares one relation row against a per-source Reach result
// (both sorted; nil and empty are interchangeable).
func rowEqual(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// perSourceRows computes the baseline relation of label over db one source
// at a time with the scalar Reach kernel.
func perSourceRows(t *testing.T, db *graph.DB, label xregex.Node, sigma []rune) [][]int {
	t.Helper()
	m, err := xregex.Compile(label, sigma)
	if err != nil {
		t.Fatalf("compile %s: %v", xregex.String(label), err)
	}
	ix := db.Index()
	c := automata.NewSubsetCache(m)
	rows := make([][]int, db.NumNodes())
	for u := range rows {
		rows[u], _ = engine.Reach(ix, c, u, true, engine.ReachOpts{})
	}
	return rows
}

// TestShardedRelationForMatchesPerSourceReach: RelationFor must materialize
// exactly the per-source Reach relation, on graphs of several batches.
func TestShardedRelationForMatchesPerSourceReach(t *testing.T) {
	sigma := []rune("abc")
	labels := []xregex.Node{
		xregex.MustParse("a(b|c)*"),
		xregex.MustParse("(a|b)+c?"),
		xregex.MustParse("c*a"),
	}
	for seed := int64(1); seed <= 2; seed++ {
		nodes := 150 + int(seed)*70 // 220 and 290: a partial last batch
		db := randomDB(seed, nodes, 5*nodes, "abc")
		for _, l := range labels {
			want := perSourceRows(t, db, l, sigma)
			rel, err := RelationFor(db, l, sigma)
			if err != nil {
				t.Fatalf("seed %d: RelationFor(%s): %v", seed, xregex.String(l), err)
			}
			for u := 0; u < nodes; u++ {
				if !rowEqual(rel.Forward(u), want[u]) {
					t.Fatalf("seed %d label %s: row %d: got %v want %v",
						seed, xregex.String(l), u, rel.Forward(u), want[u])
				}
			}
		}
	}
}

// TestShardedRelCacheDeltaMatchesPerSource drives insert-only deltas
// under an atom store, over several graphs: the maintained relations —
// grown through the batched frontier-extension path — must keep matching
// per-source Reach on the mutated database.
func TestShardedRelCacheDeltaMatchesPerSource(t *testing.T) {
	sigma := []rune("abc")
	labels := []xregex.Node{
		xregex.MustParse("a(b|c)*"),
		xregex.MustParse("(a|b)?"), // ε-accepting: new nodes gain identity rows
		xregex.AnyWord(),           // universal: always extended
	}
	for _, k := range []int{1, 2, 4} { // graph and delta seeds
		db := randomDB(int64(100+k), 160, 640, "abc")
		for _, l := range labels {
			if _, err := tableRel(Atoms(db), atomOf(t, Atoms(db), l, sigma), nil); err != nil {
				t.Fatalf("graph %d: complete table: %v", k, err)
			}
		}
		r := &testRNG{s: uint64(k)*0x9e3779b9 + 5}
		for step := 0; step < 3; step++ {
			var delta graph.Delta
			for i := 0; i <= r.intn(4); i++ {
				to := db.Name(r.intn(db.NumNodes()))
				if r.intn(4) == 0 {
					to = "fresh" + string(rune('a'+r.intn(26)))
				}
				delta.Add = append(delta.Add, graph.DeltaEdge{
					From:  db.Name(r.intn(db.NumNodes())),
					Label: []rune("abc")[r.intn(3)],
					To:    to,
				})
			}
			if _, err := db.ApplyDelta(delta); err != nil {
				t.Fatalf("graph %d step %d: ApplyDelta: %v", k, step, err)
			}
			for _, l := range labels {
				rel, err := tableRel(Atoms(db), atomOf(t, Atoms(db), l, sigma), nil) // the first one maintains the store
				if err != nil {
					t.Fatal(err)
				}
				want := perSourceRows(t, db, l, sigma)
				for u := 0; u < db.NumNodes(); u++ {
					if !rowEqual(rel.Forward(u), want[u]) {
						t.Fatalf("graph %d step %d label %s: row %d diverged from per-source Reach",
							k, step, xregex.String(l), u)
					}
				}
			}
		}
		if st := Atoms(db).Stats(); st.Extended == 0 || st.Misses != uint64(len(labels)) {
			t.Fatalf("graph %d: no table was frontier-extended, or one was rebuilt: %+v", k, st)
		}
	}
}

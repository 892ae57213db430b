package ecrpq

import (
	"fmt"
	"math/rand"
	"testing"

	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// TestAtomStoreByteBound: with the budget forced down to a few relations'
// worth, every kind of fact is asked for under random labels and joins run
// through the Yannakakis program on top. The store drops its epoch again and
// again; no answer changes; the bytes it reports are the sum of what its
// entries account for and never pass the budget by more than the entry that
// was just written.
func TestAtomStoreByteBound(t *testing.T) {
	t.Parallel()
	const n = 60
	db := probeRandomDB(77, n, 3*n, "ab")
	sigma := db.Alphabet()
	store := Atoms(db)
	store.budget = 3 * relBytes(&EdgeRel{fwd: make([][]int, n), size: n * n / 2})
	check := func(when string) {
		t.Helper()
		store.mu.Lock()
		defer store.mu.Unlock()
		var sum, largest int64
		for key, e := range store.m {
			sum += e.size(key)
			largest = max(largest, e.size(key))
		}
		if sum != store.bytes || store.bytes > store.budget+largest {
			t.Fatalf("%s: %d bytes reported, the %d entries account for %d, the largest for %d; budget %d",
				when, store.bytes, len(store.m), sum, largest, store.budget)
		}
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		label := randClassical(r, "ab", 3)
		name := fmt.Sprintf("op %d, %s", i, xregex.String(label))
		whole, err := RelationFor(db, label, sigma)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			rel, err := store.Relation(label, sigma, engine.ReachOpts{Levels: i%8 == 0})
			if err != nil || !relEqual(rel, whole) {
				t.Fatalf("%s: Relation diverged (%v)", name, err)
			}
		case 1, 2:
			targets := i%4 == 1
			diag, err := store.Support(label, sigma, targets, nil)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				partners := len(whole.Forward(u))
				if targets {
					ws, _ := whole.backward(u)
					partners = len(ws)
				}
				if (len(diag.Forward(u)) == 1) != (partners > 0) {
					t.Fatalf("%s: Support(targets=%v) and the relation disagree on node %d", name, targets, u)
				}
			}
		case 3:
			if ok, err := store.PathExists(label, sigma, nil); err != nil || ok == whole.Empty() {
				t.Fatalf("%s: PathExists = %v (%v), the relation has %d pairs", name, ok, err, whole.Size())
			}
			q := &Query{Pattern: &pattern.Graph{Out: []string{"x", "z"}, Edges: []pattern.Edge{
				{From: "x", To: "y", Label: label}, {From: "y", To: "z", Label: xregex.MustParse("(a|b)+")}, {From: "z", To: "u", Label: label}}}}
			got, err := EvalWith(q, db, Options{Tuning: planner.Tuning{Force: true}})
			if err != nil {
				t.Fatal(err)
			}
			rels := []*EdgeRel{whole, nil, whole}
			if rels[1], err = RelationFor(db, q.Pattern.Edges[1].Label, sigma); err != nil {
				t.Fatal(err)
			}
			if want := JoinRelations(q.Pattern, rels, PlanJoin(q.Pattern, rels, nil), nil, false); !got.Equal(want) {
				t.Fatalf("%s: the Yannakakis program over the starved store has %d tuples, the join over complete relations %d", name, got.Len(), want.Len())
			}
		}
		check(name)
	}
	st := store.Stats()
	if st.Evictions < 3 || st.Hits == 0 {
		t.Fatalf("the budget was never under pressure, or nothing was ever found: %+v", st)
	}
	if st.Bytes < st.Relations.Bytes+st.Supports.Bytes+st.Verdicts.Bytes {
		t.Fatalf("the kinds account for more than the store: %+v", st)
	}
}

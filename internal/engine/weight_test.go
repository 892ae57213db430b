package engine_test

import (
	"testing"
	"time"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

func compiled(t *testing.T, expr string, sigma []rune) *automata.SubsetCache {
	t.Helper()
	m, err := xregex.Compile(xregex.MustParse(expr), sigma)
	if err != nil {
		t.Fatal(err)
	}
	return automata.NewSubsetCache(m)
}

// Unit weight must reproduce the BFS kernel exactly: same hits, same levels.
// This exercises the whole Dijkstra machinery (lazy deletion, per-set-id
// distance rows, first-settle hit capture) against the independent BFS.
func TestReachWeightedUnitMatchesBFS(t *testing.T) {
	sigma := []rune("ab")
	for seed := int64(1); seed <= 8; seed++ {
		db := workload.Random(seed, 40, 160, "ab")
		ix := db.Index()
		for _, expr := range []string{"a(a|b)*", "(a|b)+", "ab|b", "b?a"} {
			c := compiled(t, expr, sigma)
			unit := engine.Weight(func(label rune) int32 { return 1 })
			for src := 0; src < db.NumNodes(); src += 7 {
				wantH, wantL := engine.Reach(ix, c, src, true, engine.ReachOpts{Levels: true})
				gotH, gotL := engine.Reach(ix, c, src, true, engine.ReachOpts{Weight: unit})
				if len(gotH) != len(wantH) {
					t.Fatalf("seed %d %s src %d: %d hits, want %d", seed, expr, src, len(gotH), len(wantH))
				}
				for i := range wantH {
					if gotH[i] != wantH[i] || gotL[i] != wantL[i] {
						t.Fatalf("seed %d %s src %d hit %d: got (%d,%d) want (%d,%d)",
							seed, expr, src, i, gotH[i], gotL[i], wantH[i], wantL[i])
					}
				}
			}
		}
	}
}

// A non-uniform weight must pick the cheaper path even when it is longer in
// edge count: s→t directly via b (weight 5) or via two a edges (1 each).
func TestReachWeightedPrefersCheaperLongerPath(t *testing.T) {
	db, err := graph.Parse("s b t\ns a x\nx a t")
	if err != nil {
		t.Fatal(err)
	}
	ix := db.Index()
	c := compiled(t, "aa|b", []rune("ab"))
	w := engine.Weight(func(label rune) int32 {
		if label == 'b' {
			return 5
		}
		return 1
	})
	s, _ := db.Lookup("s")
	tt, _ := db.Lookup("t")
	hits, levs := engine.Reach(ix, c, s, true, engine.ReachOpts{Weight: w})
	found := false
	for i, h := range hits {
		if h == tt {
			found = true
			if levs[i] != 2 {
				t.Fatalf("weighted dist s→t = %d, want 2 (two a edges beat one b edge)", levs[i])
			}
		}
	}
	if !found {
		t.Fatal("t not reached")
	}
	// Sanity: the unweighted level of the same pair is 1 (the single b edge).
	_, bl := engine.Reach(ix, c, s, true, engine.ReachOpts{Levels: true})
	for i, h := range hits {
		_ = i
		if h == tt && bl[i] != 1 {
			t.Fatalf("unweighted level s→t = %d, want 1", bl[i])
		}
	}
}

// Negative weights are clamped to zero rather than breaking the Dijkstra
// invariant.
func TestReachWeightedClampsNegative(t *testing.T) {
	db := workload.Random(3, 20, 60, "ab")
	ix := db.Index()
	c := compiled(t, "(a|b)+", []rune("ab"))
	neg := engine.Weight(func(label rune) int32 { return -7 })
	hits, levs := engine.Reach(ix, c, 0, true, engine.ReachOpts{Weight: neg})
	wantH, _ := engine.Reach(ix, c, 0, true, engine.ReachOpts{Levels: true})
	if len(hits) != len(wantH) {
		t.Fatalf("clamped search found %d hits, want %d", len(hits), len(wantH))
	}
	for _, l := range levs {
		if l != 0 {
			t.Fatalf("clamped-to-zero weights must yield cost 0, got %d", l)
		}
	}
}

// The weighted batch entry point must agree with the per-source kernel and
// flag truncation under a canceled budget.
func TestReachBatchExWeighted(t *testing.T) {
	db := workload.Random(11, 60, 240, "ab")
	ix := db.Index()
	c := compiled(t, "a(a|b)*", []rune("ab"))
	w := engine.Weight(func(label rune) int32 {
		if label == 'a' {
			return 2
		}
		return 3
	})
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	res := engine.ReachBatchEx(ix, c, srcs, true, engine.ReachOpts{Weight: w})
	if res.Truncated {
		t.Fatal("unbudgeted weighted batch reported truncation")
	}
	for i, src := range srcs {
		wantH, wantL := engine.Reach(ix, c, src, true, engine.ReachOpts{Weight: w})
		if len(res.Hits[i]) != len(wantH) {
			t.Fatalf("src %d: batch %d hits, per-source %d", src, len(res.Hits[i]), len(wantH))
		}
		for j := range wantH {
			if res.Hits[i][j] != wantH[j] || res.Levs[i][j] != wantL[j] {
				t.Fatalf("src %d hit %d: batch (%d,%d), per-source (%d,%d)",
					src, j, res.Hits[i][j], res.Levs[i][j], wantH[j], wantL[j])
			}
		}
	}

	bud := engine.NewBudget(nil, time.Now().Add(-time.Second))
	res = engine.ReachBatchEx(ix, c, srcs, true, engine.ReachOpts{Weight: w, Budget: bud})
	if !res.Truncated {
		t.Fatal("expired budget must mark the weighted batch truncated")
	}
}

package ecrpq_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

// drainRanked is the legacy baseline: full ranked drain with min-cost
// dedup, sorted by (cost, tuple).
func drainRanked(t *testing.T, q *ecrpq.Query, db *graph.DB, w engine.Weight) ([][]int32, []int) {
	t.Helper()
	best := map[string]int{}
	tuples := map[string][]int32{}
	err := streamUnion(ecrpq.MembersOf(db, q), ecrpq.Options{Ranked: true, Weight: w}, func(row []int32, cost int) bool {
		k := tupleKey(row)
		if c, ok := best[k]; !ok || cost < c {
			best[k] = cost
			tuples[k] = append([]int32(nil), row...)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if best[keys[i]] != best[keys[j]] {
			return best[keys[i]] < best[keys[j]]
		}
		return tupleLess(tuples[keys[i]], tuples[keys[j]])
	})
	outT := make([][]int32, len(keys))
	outC := make([]int, len(keys))
	for i, k := range keys {
		outT[i], outC[i] = tuples[k], best[k]
	}
	return outT, outC
}

func tupleKey(t []int32) string {
	b := make([]byte, 0, 8*len(t))
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func tupleLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// anykDrain pulls the enumerator dry, checking nondecreasing costs and
// applying first-seen (= min-cost) dedup.
func anykDrain(t *testing.T, ak *ecrpq.AnyK) (map[string]int, []int) {
	t.Helper()
	best := map[string]int{}
	var costs []int
	prev := -1
	for {
		tu, cost, ok := ak.Next()
		if !ok {
			break
		}
		if cost < prev {
			t.Fatalf("any-k emitted cost %d after %d: not nondecreasing", cost, prev)
		}
		prev = cost
		costs = append(costs, cost)
		k := tupleKey(tu)
		if _, seen := best[k]; !seen {
			best[k] = cost
		}
	}
	return best, costs
}

// The any-k enumeration must produce exactly the drain's tuple set with the
// drain's minimal cost per tuple, in nondecreasing cost order — under the
// unit weight and under a pluggable one.
func TestAnyKMatchesDrain(t *testing.T) {
	queries := []string{
		"ans(x, y)\nx y : a(a|b)*",
		"ans(x, z)\nx y : a+\ny z : b+",
		"ans(x, y, z)\nx y : ab*\ny z : (a|b)a*",
		"ans(y)\nx y : ba*\ny x : ab*",
	}
	weights := []engine.Weight{
		nil,
		func(label rune) int32 {
			if label == 'b' {
				return 4
			}
			return 1
		},
	}
	// Seed 0 is the high-output input: a gMark-style graph under the two
	// binary queries, thousands of rows each.
	for seed := int64(0); seed <= 6; seed++ {
		db, srcs := workload.GMark(7, 200), queries[:2]
		if seed > 0 {
			db, srcs = workload.Random(seed, 30, 110, "ab"), queries
		}
		for _, src := range srcs {
			q := mustQuery(t, src)
			for wi, w := range weights {
				wantT, wantC := drainRanked(t, q, db, w)
				ak := ecrpq.NewAnyK(ecrpq.Options{})
				if err := ak.AddUnion(ecrpq.MembersOf(db, q), w); err != nil {
					t.Fatal(err)
				}
				got, _ := anykDrain(t, ak)
				if len(got) != len(wantT) {
					t.Fatalf("seed %d query %q weight %d: any-k %d distinct tuples, drain %d",
						seed, src, wi, len(got), len(wantT))
				}
				for i, tu := range wantT {
					c, ok := got[tupleKey(tu)]
					if !ok {
						t.Fatalf("seed %d query %q weight %d: drain tuple %v missing from any-k", seed, src, wi, tu)
					}
					if c != wantC[i] {
						t.Fatalf("seed %d query %q weight %d: tuple %v any-k cost %d, drain min cost %d",
							seed, src, wi, tu, c, wantC[i])
					}
				}
			}
		}
	}
}

// Groups ride the same enumeration: equality-constrained conjuncts must
// agree with the drain too.
func TestAnyKMatchesDrainGroups(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db := workload.Random(seed, 16, 50, "ab")
		q := mustQuery(t, "ans(x, y)\nx y : (a|b)+\nx y : (a|b)+",
			ecrpq.Group{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}})
		wantT, wantC := drainRanked(t, q, db, nil)
		ak := ecrpq.NewAnyK(ecrpq.Options{})
		if err := ak.AddUnion(ecrpq.MembersOf(db, q), nil); err != nil {
			t.Fatal(err)
		}
		got, _ := anykDrain(t, ak)
		if len(got) != len(wantT) {
			t.Fatalf("seed %d: any-k %d distinct tuples, drain %d", seed, len(got), len(wantT))
		}
		for i, tu := range wantT {
			if got[tupleKey(tu)] != wantC[i] {
				t.Fatalf("seed %d: tuple %v cost %d, want %d", seed, tu, got[tupleKey(tu)], wantC[i])
			}
		}
	}
}

// A canceled budget stops Next without emitting out-of-order rows. The budget
// is polled on the first pop, every 64 pops after it and inside every
// extension computation: an expired one yields nothing, and one canceled
// mid-stream is noticed within 64 more rows (a row is at least one pop).
func TestAnyKBudgetStops(t *testing.T) {
	db := workload.Random(5, 40, 160, "ab")
	q := mustQuery(t, "ans(x, z)\nx y : a+\ny z : b+")
	bud := engine.NewBudget(nil, time.Now().Add(-time.Second))
	ak := ecrpq.NewAnyK(ecrpq.Options{Budget: bud})
	if err := ak.AddUnion(ecrpq.MembersOf(db, q), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ak.Next(); ok {
		t.Fatal("expired budget must stop the enumeration")
	}
	if bud.Err() == nil {
		t.Fatal("budget must report cancellation")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ak = ecrpq.NewAnyK(ecrpq.Options{Budget: engine.NewBudget(ctx, time.Time{})})
	if err := ak.AddUnion(ecrpq.MembersOf(db, q), nil); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i := 0; i < 10; i++ {
		_, cost, ok := ak.Next()
		if !ok || cost < prev {
			t.Fatalf("row %d before the cancellation: ok %v, cost %d after %d", i, ok, cost, prev)
		}
		prev = cost
	}
	cancel()
	extra := 0
	for _, cost, ok := ak.Next(); ok; _, cost, ok = ak.Next() {
		if extra++; cost < prev || extra > 64 {
			t.Fatalf("row %d after the cancellation, cost %d after %d: want at most 64 rows, costs nondecreasing", extra, cost, prev)
		}
		prev = cost
	}
}

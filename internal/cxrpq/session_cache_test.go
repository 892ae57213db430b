package cxrpq_test

// Eviction edge cases for the session-scoped bounded caches: a relation
// cache far smaller than the number of distinct instantiated labels must
// still produce exact results (entries are pure caches), the eviction
// counter must move, and the result cache must report hits on repeated
// calls and honor its disable switch.

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/workload"
)

// One plan, one entry: a classical and a simple query are unions of one
// ECRPQ^er, so Eval and EvalVsf are one operation under one result-cache key
// (they used to be two translations under "eval" and "vsf"), and a stream
// after either is a window of the one cached set.
func TestOnePlanOneResultEntry(t *testing.T) {
	db := workload.Random(7, 12, 40, "ab")
	for _, src := range []string{
		"ans(x, z)\nx y : a+\ny z : b",                // classical
		"ans(x, z)\nx y : $w{a|b}b*\ny z : $w\n",      // simple
		"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n", // vstar-free, four members
	} {
		sess := cxrpq.MustPrepare(cxrpq.MustParse(src)).Bind(db)
		first, err := sess.Eval()
		if err != nil || first.Len() == 0 {
			t.Fatalf("%q: Eval = %v rows, %v", src, first.Len(), err)
		}
		second, err := sess.EvalVsf()
		if err != nil || second != first {
			t.Fatalf("%q: EvalVsf after Eval did not return the cached set (%v)", src, err)
		}
		if st := sess.Stats(); st.ResultMisses != 1 || st.ResultHits != 1 || st.ResultSize != 1 {
			t.Fatalf("%q: Eval then EvalVsf: %d misses, %d hits, %d entries; want 1, 1, 1", src, st.ResultMisses, st.ResultHits, st.ResultSize)
		}
		cur, err := sess.Stream(cxrpq.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := first.SortedRows()
		if p := cur.FetchRows(want.N + 1); p.N != want.N || &p.Data[0] != &want.Data[0] {
			t.Fatalf("%q: the stream after Eval is not a window of the cached answer (%d rows of %d)", src, p.N, want.N)
		}
		if ok, err := sess.EvalVsfBool(); err != nil || !ok {
			t.Fatalf("%q: EvalVsfBool = %v, %v", src, ok, err)
		}
		if ok, err := sess.EvalBool(); err != nil || !ok {
			t.Fatalf("%q: EvalBool = %v, %v", src, ok, err)
		}
		if st := sess.Stats(); st.ResultSize != 2 {
			t.Fatalf("%q: %d result entries after set and Boolean evaluation, want 2", src, st.ResultSize)
		}
	}
}

func TestSessionRelCacheEviction(t *testing.T) {
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}c?\nm n : $y{$x|b}($x|$y)\nn q : $x+|b\n")
	db := workload.Random(11, 6, 14, "abc")
	const k = 2

	want, err := cxrpq.EvalBoundedNaive(q, db, k)
	if err != nil {
		t.Fatal(err)
	}

	plan := cxrpq.MustPrepare(q)
	// Capacity 2 forces constant epoch drops (a 3-edge query instantiates
	// far more than 2 distinct labels per mapping sweep); result caching is
	// disabled so the second call recomputes through the starved cache.
	sess := plan.BindOpts(db, cxrpq.SessionOptions{RelCacheCap: 2, ResultCacheCap: -1})

	for call := 0; call < 2; call++ {
		got, err := sess.EvalBounded(k)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if !got.Equal(want) {
			t.Fatalf("call %d: wrong result under eviction pressure: %d tuples, want %d",
				call, got.Len(), want.Len())
		}
	}
	st := sess.Stats()
	if st.Rel.Evictions == 0 {
		t.Fatalf("expected relation-cache evictions at capacity 2, got %+v", st.Rel)
	}
	if st.Rel.Size > 2 {
		t.Fatalf("relation cache exceeded its capacity: %+v", st.Rel)
	}
	if st.Rel.Misses == 0 {
		t.Fatalf("expected relation-cache misses, got %+v", st.Rel)
	}
	if st.ResultHits != 0 || st.ResultMisses != 0 {
		t.Fatalf("result cache disabled but counted: %+v", st)
	}

	// An amply sized session must agree with the starved one and show
	// result-cache hits on the repeated call.
	roomy := plan.Bind(db)
	r1, err := roomy.EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := roomy.EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(want) || !r2.Equal(want) {
		t.Fatal("roomy session diverged")
	}
	rst := roomy.Stats()
	if rst.ResultHits == 0 {
		t.Fatalf("expected a result-cache hit on the repeated call, got %+v", rst)
	}
	if rst.Rel.Evictions != 0 {
		t.Fatalf("roomy session should not evict, got %+v", rst.Rel)
	}
}

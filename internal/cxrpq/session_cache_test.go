package cxrpq_test

// Eviction edge cases for the bounded caches: an atom store whose budget the
// instantiated relations overflow must still produce exact results (entries
// are pure caches), the eviction counter must move, and the result cache must
// report hits on repeated calls and honor its disable switch.

import (
	"fmt"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
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

// TestSessionRelCacheEviction: what bounds the atom store is bytes. On a
// 1 024-node a-cycle every relation of the form a…a+ or a…a* holds all n² pairs,
// ~17 MB as the store accounts it, and the query instantiates five of them:
// the store has to drop its epoch on the way, the answer has to be the same
// every time (entries are pure caches; a run holds the relations it joins),
// and the bytes reported never pass the budget.
func TestSessionRelCacheEviction(t *testing.T) {
	const n = 1024
	db := graph.New()
	for i := 0; i < n; i++ {
		db.AddEdgeNames(fmt.Sprint("c", i), 'a', fmt.Sprint("c", (i+1)%n))
	}
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, u)\nx y : $w{a|aa}a+\ny z : $w a*\nz u : aa$w+\n"))
	// Result caching is disabled so the second call recomputes through the store.
	sess := plan.BindOpts(db, cxrpq.SessionOptions{ResultCacheCap: -1})
	for call := 0; call < 2; call++ {
		if ok, err := sess.EvalBoundedBool(2); err != nil || !ok {
			t.Fatalf("call %d: %v, %v; every node reaches every node", call, ok, err)
		}
		st := sess.Stats()
		if st.Atoms.Evictions == 0 || st.Atoms.Misses == 0 {
			t.Fatalf("call %d: expected the store to overflow its budget: %+v", call, st.Atoms)
		}
		if st.Atoms.Bytes > st.Atoms.Budget || st.Atoms.Relations.Bytes > st.Atoms.Bytes {
			t.Fatalf("call %d: the store holds more than its budget: %+v", call, st.Atoms)
		}
		if st.ResultHits != 0 || st.ResultMisses != 0 {
			t.Fatalf("result cache disabled but counted: %+v", st)
		}
	}

	// A store with room to spare never evicts, and the repeated call is a
	// result-cache hit.
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}c?\nm n : $y{$x|b}($x|$y)\nn q : $x+|b\n")
	small := workload.Random(11, 6, 14, "abc")
	want, err := cxrpq.EvalBoundedNaive(q, small, 2)
	if err != nil {
		t.Fatal(err)
	}
	roomy := cxrpq.MustPrepare(q).Bind(small)
	for call := 0; call < 2; call++ {
		if got, err := roomy.EvalBounded(2); err != nil || !got.Equal(want) {
			t.Fatalf("roomy call %d: %v tuples (%v), want %d", call, got.Len(), err, want.Len())
		}
	}
	rst := roomy.Stats()
	if rst.ResultHits == 0 {
		t.Fatalf("expected a result-cache hit on the repeated call, got %+v", rst)
	}
	if rst.Atoms.Evictions != 0 || rst.Atoms.Relations.Entries == 0 {
		t.Fatalf("roomy store should hold its relations and not evict, got %+v", rst.Atoms)
	}
}

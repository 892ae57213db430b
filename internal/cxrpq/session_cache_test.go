package cxrpq_test

// Eviction edge cases for the bounded caches: an atom store whose budget the
// instantiated relations overflow must still produce exact results (entries
// are pure caches), the eviction counter must move, and the result cache must
// report hits on repeated calls.

import (
	"fmt"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// One plan, one entry: a classical, a simple and a vstar-free query are all
// unions of ECRPQ^er, so an eval of any of them is one result-cache entry the
// next eval hits, and a stream after it is a window of the one cached set.
func TestOnePlanOneResultEntry(t *testing.T) {
	db := workload.Random(7, 12, 40, "ab")
	for _, src := range []string{
		"ans(x, z)\nx y : a+\ny z : b",                // classical
		"ans(x, z)\nx y : $w{a|b}b*\ny z : $w\n",      // simple
		"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n", // vstar-free, four members
	} {
		sess := cxrpq.MustPrepare(cxrpq.MustParse(src)).Bind(db)
		first, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
		if err != nil || first.Len() == 0 {
			t.Fatalf("%q: Eval = %v rows, %v", src, first.Len(), err)
		}
		second, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
		if err != nil || second != first {
			t.Fatalf("%q: the second eval did not return the cached set (%v)", src, err)
		}
		if st := sess.Stats(); st.ResultMisses != 1 || st.ResultHits != 1 || st.ResultSize != 1 {
			t.Fatalf("%q: two evals: %d misses, %d hits, %d entries; want 1, 1, 1", src, st.ResultMisses, st.ResultHits, st.ResultSize)
		}
		cur, err := sess.Stream(cxrpq.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := first.SortedRows()
		if p := cur.FetchRows(want.N + 1); p.N != want.N || &p.Data[0] != &want.Data[0] {
			t.Fatalf("%q: the stream after Eval is not a window of the cached answer (%d rows of %d)", src, p.N, want.N)
		}
		if ok, err := verdict(sess.Do(cxrpq.Request{Op: "bool"})); err != nil || !ok {
			t.Fatalf("%q: bool = %v, %v", src, ok, err)
		}
		if st := sess.Stats(); st.ResultSize != 2 {
			t.Fatalf("%q: %d result entries after set and Boolean evaluation, want 2", src, st.ResultSize)
		}
	}
}

// TestSessionRelCacheEviction: what bounds the atom store is bytes. On a
// 1 200-node a-cycle every relation of the form a…a+ or a…a* holds all n² pairs,
// ~17 MB as the store accounts it, and a one-worker Boolean run stores four of
// them before its first witness: the store has to drop its epoch on the way,
// the answer has to be the same every time (entries are pure caches; a run
// holds the relations it joins), and the bytes reported never pass the budget.
func TestSessionRelCacheEviction(t *testing.T) {
	const n = 1200
	db := graph.New()
	for i := 0; i < n; i++ {
		db.AddEdgeNames(fmt.Sprint("c", i), 'a', fmt.Sprint("c", (i+1)%n))
	}
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, u)\nx y : $w{a|aa}a+\ny z : $w a*\nz u : aa$w+\n"))
	// A fresh session per call: the second call recomputes through the store,
	// which belongs to the database and so is shared by both sessions. One
	// worker finds the first witness after the same relations every time.
	for call := 0; call < 2; call++ {
		sess := plan.BindWorkers(db, 1)
		if ok, err := verdict(sess.Do(cxrpq.Request{Op: "bool", Semantics: "bounded", K: 2})); err != nil || !ok {
			t.Fatalf("call %d: %v, %v; every node reaches every node", call, ok, err)
		}
		st := sess.Stats()
		if st.Atoms.Evictions == 0 || st.Atoms.Misses == 0 {
			t.Fatalf("call %d: expected the store to overflow its budget: %+v", call, st.Atoms)
		}
		if st.Atoms.Bytes > st.Atoms.Budget || st.Atoms.Relations.Bytes > st.Atoms.Bytes {
			t.Fatalf("call %d: the store holds more than its budget: %+v", call, st.Atoms)
		}
		if st.ResultHits != 0 || st.ResultMisses != 1 {
			t.Fatalf("call %d on a fresh session hit its result cache: %+v", call, st)
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
		if got, err := tuples(roomy.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2})); err != nil || !got.Equal(want) {
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

// TestNegativeKRefused: a bounded request with a negative image bound is an
// error whatever the result cache holds. The union's entries are filed under
// image bound -1, and such a request once read them: bool found a set where
// it wanted a verdict and panicked, every other op and the stream answered
// with the union's cached answer.
func TestNegativeKRefused(t *testing.T) {
	db := workload.Random(7, 12, 40, "ab")
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n"))
	all := plan.Bind(db).Do(cxrpq.Request{Op: "eval"})
	if all.Err != nil || all.Tuples.Len() == 0 {
		t.Fatalf("fixture: %v, %v", all.Tuples, all.Err)
	}
	answer := all.Tuples.Sorted()[0]
	for _, op := range []string{"bool", "eval", "check", "explain"} {
		var tuple pattern.Tuple
		if op == "check" || op == "explain" {
			tuple = answer
		}
		sess := plan.Bind(db)
		if resp := sess.Do(cxrpq.Request{Op: op, Tuple: tuple}); resp.Err != nil || !resp.OK {
			t.Fatalf("%s over the union = %v, %v", op, resp.OK, resp.Err)
		}
		resp := sess.Do(cxrpq.Request{Op: op, Semantics: "bounded", K: -1, Tuple: tuple})
		if resp.Err == nil || resp.OK || resp.Tuples != nil || resp.Explanation != nil {
			t.Errorf("%s with k = -1 after the union = %+v; want an error and no answer", op, resp)
		}
	}
	sess := plan.Bind(db)
	sess.Do(cxrpq.Request{Op: "eval"})
	if cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: -1}); err == nil {
		cur.Close()
		t.Error("a stream with k = -1 opened after the union's eval")
	}
}

package cxrpq_test

// Eviction edge cases for the bounded caches: an atom store whose budget the
// instantiated relations overflow must still produce exact results (entries
// are pure caches), the eviction counter must move, and the result cache must
// report hits on repeated calls.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// One plan, one entry: a classical, a simple and a vstar-free query are all
// unions of ECRPQ^er, so an eval of any of them is one result-cache entry the
// next eval hits, and a stream after it is a window of the one cached set.
func TestOnePlanOneResultEntry(t *testing.T) {
	for _, src := range []string{
		"ans(x, z)\nx y : a+\ny z : b",                // classical
		"ans(x, z)\nx y : $w{a|b}b*\ny z : $w\n",      // simple
		"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n", // vstar-free, four members
	} {
		sess := cxrpq.MustPrepare(cxrpq.MustParse(src)).Bind(workload.Random(7, 12, 40, "ab"))
		first, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
		if err != nil || first.Len() == 0 {
			t.Fatalf("%q: Eval = %v rows, %v", src, first.Len(), err)
		}
		second, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
		if err != nil || second != first {
			t.Fatalf("%q: the second eval did not return the cached set (%v)", src, err)
		}
		if st := storeStats(sess); st.ResultMisses != 1 || st.ResultHits != 1 || st.Results.Entries != 1 {
			t.Fatalf("%q: two evals: %d misses, %d hits, %d entries; want 1, 1, 1", src, st.ResultMisses, st.ResultHits, st.Results.Entries)
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
		if st := storeStats(sess); st.Results.Entries != 2 {
			t.Fatalf("%q: %d result entries after set and Boolean evaluation, want 2", src, st.Results.Entries)
		}
	}
}

// The ranked prefix is one result-cache entry and counts like one: building
// a ranked producer is a miss, and every page a cursor without a producer
// reads off the prefix is a hit. A weighted stream shares nothing and counts
// nothing.
func TestRankedPrefixCounts(t *testing.T) {
	sess := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b")).Bind(workload.Random(7, 12, 40, "ab"))
	ranked := cxrpq.StreamOptions{Ranked: true}
	first, err := sess.Stream(ranked)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainCursor(t, first, 5)); n < 10 {
		t.Fatalf("fixture drifted: %d ranked rows", n)
	}
	if st := storeStats(sess); st.ResultMisses != 1 || st.ResultHits != 0 || st.Results.Entries != 1 {
		t.Fatalf("one ranked drain: %d misses, %d hits, %d entries; want 1, 0, 1", st.ResultMisses, st.ResultHits, st.Results.Entries)
	}
	for _, opts := range []cxrpq.StreamOptions{ranked, {Ranked: true, Limit: 3}} {
		before := storeStats(sess)
		cur, err := sess.Stream(opts)
		if err != nil {
			t.Fatal(err)
		}
		pages := 0
		for p := cur.FetchRows(5); p.N > 0; p = cur.FetchRows(5) {
			pages++
		}
		if st := storeStats(sess); st.ResultMisses != before.ResultMisses || st.ResultHits != before.ResultHits+uint64(pages) || st.Results.Entries != 1 {
			t.Fatalf("%+v over the complete prefix: %d pages, then %+v after %+v; want a hit per page", opts, pages, st, before)
		}
	}
	before := storeStats(sess)
	cur, err := sess.Stream(cxrpq.StreamOptions{Ranked: true, Weight: func(rune) int32 { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	drainCursor(t, cur, 5)
	if st := storeStats(sess); st.ResultMisses != before.ResultMisses || st.ResultHits != before.ResultHits || st.Results.Entries != 1 {
		t.Fatalf("a weighted stream moved the result cache: %+v after %+v", st, before)
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
	q := cxrpq.MustParse("ans(x, u)\nx y : $w{a|aa}a+\ny z : $w a*\nz u : aa$w+\n")
	// A fresh plan per call: its answer is filed under the plan, so the second
	// call recomputes through the store, which belongs to the database and so
	// is shared by both. One worker finds the first witness after the same
	// relations every time.
	for call := 0; call < 2; call++ {
		sess := cxrpq.MustPrepare(q).BindWorkers(db, 1)
		if ok, err := verdict(sess.Do(cxrpq.Request{Op: "bool", Semantics: "bounded", K: 2})); err != nil || !ok {
			t.Fatalf("call %d: %v, %v; every node reaches every node", call, ok, err)
		}
		st := storeStats(sess)
		if st.Evictions == 0 || st.Misses == 0 {
			t.Fatalf("call %d: expected the store to overflow its budget: %+v", call, st)
		}
		if st.Bytes > st.Budget || st.Relations.Bytes > st.Bytes {
			t.Fatalf("call %d: the store holds more than its budget: %+v", call, st)
		}
		if st.ResultHits != 0 || st.ResultMisses != uint64(call+1) {
			t.Fatalf("call %d of a fresh plan hit an answer: %+v", call, st)
		}
	}

	// A store with room to spare never evicts, and the repeated call is a
	// result-cache hit.
	q = cxrpq.MustParse("ans(p, q)\np m : $x{a|b}c?\nm n : $y{$x|b}($x|$y)\nn q : $x+|b\n")
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
	rst := storeStats(roomy)
	if rst.ResultHits == 0 {
		t.Fatalf("expected a result-cache hit on the repeated call, got %+v", rst)
	}
	if rst.Evictions != 0 || rst.Relations.Entries == 0 {
		t.Fatalf("roomy store should hold its relations and not evict, got %+v", rst)
	}
}

// TestAnswersShareTheAccount: answers are charged to the database's one
// byte account, at its real budget. Every node of a 600-node cycle reaches
// every node, so each of 25 plans of x y : (a|b)* has 360 000 rows, ~2.9 MB
// as the store accounts them and more than 64 MiB together: the store drops
// its epoch on the way, and never holds more than its budget and the answer
// just filed.
func TestAnswersShareTheAccount(t *testing.T) {
	const n, plans = 600, 25
	db := graph.New()
	for i := 0; i < n; i++ {
		db.AddEdgeNames(fmt.Sprint("c", i), rune('a'+i%2), fmt.Sprint("c", (i+1)%n))
	}
	var largest int64
	for i := 0; i < plans; i++ {
		src := fmt.Sprintf("ans(x%d, y%d)\nx%d y%d : (a|b)*", i, i, i, i)
		sess := cxrpq.MustPrepare(cxrpq.MustParse(src)).Bind(db)
		before := storeStats(sess).Results.Bytes
		if got, err := tuples(sess.Do(cxrpq.Request{Op: "eval"})); err != nil || got.Len() != n*n {
			t.Fatalf("plan %d: %d rows, %v; want %d", i, got.Len(), err, n*n)
		}
		st := storeStats(sess)
		if i == 0 { // every answer has as many rows as the first
			largest = st.Results.Bytes - before
		}
		if st.Bytes > st.Budget+largest {
			t.Fatalf("plan %d: the store holds %d bytes, over its budget %d and the largest answer %d", i, st.Bytes, st.Budget, largest)
		}
	}
	if st := ecrpq.Atoms(db).Stats(); st.Evictions == 0 || st.Results.Entries >= plans {
		t.Fatalf("%d answers of ~%d bytes each never pressed the budget: %+v", plans, largest, st)
	}
}

// TestStoreKeepsNoPlanAlive: an answer is filed under its plan weakly, so a
// plan nothing else holds is collected while the store keeps the entry —
// charged, and never hit again.
func TestStoreKeepsNoPlanAlive(t *testing.T) {
	db := workload.Random(7, 12, 40, "ab")
	collected := make(chan struct{})
	func() {
		plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b"))
		if _, err := tuples(plan.Bind(db).Do(cxrpq.Request{Op: "eval"})); err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(plan, func(ch chan struct{}) { close(ch) }, collected)
	}()
	for deadline := time.Now().Add(2 * time.Second); ; {
		runtime.GC()
		runtime.GC()
		select {
		case <-collected:
			if st := ecrpq.Atoms(db).Stats(); st.Results.Entries != 1 {
				t.Fatalf("the store holds %d answers once the plan is collected, want its 1", st.Results.Entries)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the plan of a filed answer was never collected: the store keeps it alive")
		}
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

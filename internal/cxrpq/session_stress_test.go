package cxrpq_test

// Concurrency stress tests for the Session layer: many goroutines share one
// Session and issue mixed eval/check/explain requests, some fanned out as a
// batch; every result must
// match the sequentially computed ground truth, under -race. A second test
// drives the invalidation contract: after a (quiescent) DB mutation the
// session must never serve relations derived from the old revision, with
// and without an explicit Invalidate call.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

func TestSessionConcurrentStressBounded(t *testing.T) {
	// General-fragment query: only the bounded engine applies.
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}c?\nm n : $y{$x|b}($x|$y)\nn q : $x+|b\n")
	db := workload.Random(42, 6, 14, "abc")
	const k = 2

	want, err := cxrpq.EvalBoundedNaive(q, db, k)
	if err != nil {
		t.Fatal(err)
	}
	wantBool := want.Len() > 0
	members := want.Sorted()
	nonMember := pattern.Tuple{0, 0}
	for v := 0; v < db.NumNodes(); v++ {
		probe := pattern.Tuple{v, v}
		if !want.Contains(probe) {
			nonMember = probe
			break
		}
	}

	plan, err := cxrpq.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.Bind(db)

	const goroutines = 8
	const iters = 20
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 5 {
				case 0:
					res, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
					if err != nil {
						errs <- fmt.Errorf("bounded eval: %v", err)
					} else if !res.Equal(want) {
						errs <- fmt.Errorf("bounded eval: %d tuples, want %d", res.Len(), want.Len())
					}
				case 1:
					ok, err := verdict(sess.Do(cxrpq.Request{Op: "bool", Semantics: "bounded", K: k}))
					if err != nil || ok != wantBool {
						errs <- fmt.Errorf("bounded bool=%v err=%v, want %v", ok, err, wantBool)
					}
				case 2:
					tup := members[(g*iters+i)%len(members)]
					ok, err := verdict(sess.Do(cxrpq.Request{Op: "check", Semantics: "bounded", K: k, Tuple: tup}))
					if err != nil || !ok {
						errs <- fmt.Errorf("bounded check(%v)=%v err=%v, want true", tup, ok, err)
					}
					if ok2, err := verdict(sess.Do(cxrpq.Request{Op: "check", Semantics: "bounded", K: k, Tuple: nonMember})); err != nil || ok2 {
						errs <- fmt.Errorf("bounded check(%v)=%v err=%v, want false", nonMember, ok2, err)
					}
				case 3:
					ex, ok, err := witness(sess.Do(cxrpq.Request{Op: "explain", Semantics: "bounded", K: k}))
					if err != nil || ok != wantBool {
						errs <- fmt.Errorf("bounded explain ok=%v err=%v, want %v", ok, err, wantBool)
					} else if ok && ex == nil {
						errs <- fmt.Errorf("bounded explain: ok without explanation")
					}
				case 4:
					reqs := []cxrpq.Request{
						{Op: "eval", Semantics: "bounded", K: k},
						{Op: "bool", Semantics: "bounded", K: k},
						{Op: "check", Semantics: "bounded", K: k, Tuple: members[0]},
					}
					resps := make([]cxrpq.Response, len(reqs))
					engine.Fan(0, len(reqs), func(j int) { resps[j] = sess.Do(reqs[j]) })
					if resps[0].Err != nil || !resps[0].Tuples.Equal(want) {
						errs <- fmt.Errorf("batch eval diverged: %v", resps[0].Err)
					}
					if resps[1].Err != nil || resps[1].OK != wantBool {
						errs <- fmt.Errorf("batch bool diverged: %v", resps[1].Err)
					}
					if resps[2].Err != nil || !resps[2].OK {
						errs <- fmt.Errorf("batch check diverged: %v", resps[2].Err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := storeStats(sess)
	if st.Hits == 0 {
		t.Errorf("expected atom-store hits under concurrent reuse, got %+v", st)
	}
}

func TestSessionConcurrentStressVsf(t *testing.T) {
	// Vstar-free query: the materialized branch-combination path.
	q := cxrpq.MustParse("ans(p, q)\np m : $x{aa|b}\nm q : ($x|c)b?\n")
	db := workload.Random(7, 7, 18, "abc")

	want, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	wantBool := want.Len() > 0
	sess := cxrpq.MustPrepare(q).Bind(db)

	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (g + i) % 3 {
				case 0:
					res, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
					if err != nil || !res.Equal(want) {
						errs <- fmt.Errorf("vsf Eval diverged: %v", err)
					}
				case 1:
					ok, err := verdict(sess.Do(cxrpq.Request{Op: "bool"}))
					if err != nil || ok != wantBool {
						errs <- fmt.Errorf("vsf EvalBool=%v err=%v", ok, err)
					}
				case 2:
					if want.Len() > 0 {
						tup := want.Sorted()[(g+i)%want.Len()]
						ok, err := verdict(sess.Do(cxrpq.Request{Op: "check", Tuple: tup}))
						if err != nil || !ok {
							errs <- fmt.Errorf("vsf Check(%v)=%v err=%v", tup, ok, err)
						}
						if _, ok, err := witness(sess.Do(cxrpq.Request{Op: "explain", Tuple: tup})); err != nil || !ok {
							errs <- fmt.Errorf("vsf Explain(%v) ok=%v err=%v", tup, ok, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionInvalidation drives the invalidation contract: a session must
// never serve relations from a stale DB revision after a quiescent
// mutation, both via the automatic revision check and via an explicit
// Invalidate call.
func TestSessionInvalidation(t *testing.T) {
	db := graph.New()
	u, v, w := db.Node("u"), db.Node("v"), db.Node("w")
	db.AddEdge(u, 'a', v)
	db.AddEdge(v, 'b', w)

	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : $x|b\n")
	sess := cxrpq.MustPrepare(q).Bind(db)

	check := func(label string) {
		t.Helper()
		got, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := cxrpq.EvalBoundedNaive(q, db, 1)
		if err != nil {
			t.Fatalf("%s: naive: %v", label, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: stale result: session %d tuples, fresh naive %d", label, got.Len(), want.Len())
		}
	}

	check("initial")
	before, _ := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))

	// Mutation 1: new edges that add answers; the automatic revision check
	// must drop the caches.
	x := db.Node("x")
	db.AddEdge(w, 'a', x)
	db.AddEdge(x, 'a', u)
	check("after mutation (auto revision check)")
	after, _ := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
	if after.Equal(before) {
		t.Fatal("mutation did not change the answer set; test is vacuous")
	}

	// Mutation 2: explicit Invalidate before the next call must behave the
	// same (and is allowed to be redundant with the revision check).
	db.AddEdge(u, 'b', w)
	sess.Invalidate()
	check("after mutation (explicit Invalidate)")

	// A new symbol extends the session alphabet too.
	db.AddEdge(w, 'c', u)
	check("after alphabet-extending mutation")
}

// TestSessionConcurrentDeltaStress drives concurrent Session.Do readers
// against a writer looping ApplyDelta under -race. The writer coordinates
// with readers through an RWMutex — the server's quiescence pattern — and
// walks a fixed delta script whose per-generation ground truths are
// precomputed, so every reader can verify the exact tuple set of the
// revision it observed while the caches around it are being
// delta-maintained.
func TestSessionConcurrentDeltaStress(t *testing.T) {
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : ($x|b)a?\n")
	db := workload.Random(23, 6, 12, "ab")
	const k = 1

	// The delta script: additions, a removal and a mixed batch, all carried
	// entry by entry, cycled.
	script := []graph.Delta{
		{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(3)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(1), Label: 'b', To: "fresh0"}, {From: "fresh0", Label: 'a', To: db.Name(2)}}},
		{Del: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(3)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(4), Label: 'a', To: db.Name(5)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(2), Label: 'b', To: db.Name(0)}}, Del: []graph.DeltaEdge{{From: db.Name(4), Label: 'a', To: db.Name(5)}}},
	}

	// Precompute the ground truth of every generation on a scratch copy.
	scratch := workload.Random(23, 6, 12, "ab")
	truths := make([]*pattern.TupleSet, 0, len(script)+1)
	truth := func() *pattern.TupleSet {
		res, err := cxrpq.EvalBoundedNaive(q, scratch, k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	truths = append(truths, truth())
	for _, delta := range script {
		if _, err := scratch.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		truths = append(truths, truth())
	}

	sess := cxrpq.MustPrepare(q).Bind(db)
	var dbMu sync.RWMutex
	var gen atomic.Int64

	const readers = 6
	errs := make(chan error, readers*64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dbMu.RLock()
				want := truths[gen.Load()]
				resp := sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k})
				dbMu.RUnlock()
				if resp.Err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, resp.Err)
					return
				}
				if !resp.Tuples.Equal(want) {
					errs <- fmt.Errorf("reader %d iter %d: %d tuples, want %d", g, i, resp.Tuples.Len(), want.Len())
					return
				}
			}
		}(g)
	}

	// Writer: walk the script under the write lock, yielding between steps
	// so readers interleave with every generation.
	for step, delta := range script {
		time.Sleep(2 * time.Millisecond)
		dbMu.Lock()
		if _, err := sess.ApplyDelta(delta); err != nil {
			dbMu.Unlock()
			t.Fatalf("writer step %d: %v", step, err)
		}
		gen.Store(int64(step + 1))
		dbMu.Unlock()
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := storeStats(sess)
	if st.DeltaPasses == 0 {
		t.Errorf("no fine-grained delta maintenance happened under stress: %+v", st)
	}
	if st.FullRebuilds != 1 { // the initial bind: removals are carried too
		t.Errorf("a delta emptied the store: %+v", st)
	}
}

// TestSessionInvalidateForcesFullFlush is the regression test for the
// explicit escape hatch: Invalidate must always start a fresh epoch — no
// delta maintenance, an empty atom store — even when the delta log could
// have maintained the store fine-grained.
func TestSessionInvalidateForcesFullFlush(t *testing.T) {
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : $x|b\n")
	db := workload.Random(31, 5, 10, "ab")
	sess := cxrpq.MustPrepare(q).Bind(db)
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
		t.Fatal(err)
	}
	pre := storeStats(sess)
	if pre.Relations.Entries == 0 {
		t.Fatal("atom store unexpectedly empty after a bounded eval")
	}

	// Insert-only delta — maintainable — but Invalidate must win.
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(1)}}}); err != nil {
		t.Fatal(err)
	}
	sess.Invalidate()
	got, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cxrpq.EvalBoundedNaive(q, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("post-Invalidate result diverged: %d tuples, want %d", got.Len(), want.Len())
	}
	st := storeStats(sess)
	if st.DeltaPasses != 0 {
		t.Fatalf("Invalidate was bypassed by delta maintenance: %+v", st)
	}
	if st.FullRebuilds != 1 || st.Retained != 0 || st.Extended != 0 || st.Relations.Entries == 0 {
		t.Fatalf("Invalidate did not start the database's store afresh: %+v -> %+v", pre, st)
	}
}

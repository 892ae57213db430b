package cxrpq_test

// Batched-kernel coverage at the query level: a differential sweep of
// random CXRPQs against the naive baseline, and a -race stress test driving
// concurrent session evaluations against an ApplyDelta writer on a graph of
// several MS-BFS batches. The test names predate the removal of the sharded
// kernel.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// TestShardedRandomQueryDifferential sweeps workload.RandomQuery seeds: the
// full pipeline (parse → plan → batched relation construction → join) must
// agree with the naive Theorem 6 baseline on small graphs.
func TestShardedRandomQueryDifferential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := workload.NewRNG(seed*977 + 11)
		q := workload.RandomQuery(r, r.Intn(4) != 0)
		nodes := 3 + r.Intn(3)
		db := workload.Random(seed^0x5ad, nodes, nodes+r.Intn(nodes+3), "ab")
		k := 1 + r.Intn(2)
		want, err := cxrpq.EvalBoundedNaive(q, db, k)
		if err != nil {
			t.Fatalf("seed %d: naive: %v\nquery:\n%s", seed, err, q.Pattern)
		}
		got, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatalf("seed %d: %v\nquery:\n%s", seed, err, q.Pattern)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: %d tuples, naive %d\nquery:\n%s", seed, got.Len(), want.Len(), q.Pattern)
		}
	}
}

// TestSessionConcurrentShardedDeltaStress is the large-graph twin of
// TestSessionConcurrentDeltaStress: concurrent Session.Do readers against
// an ApplyDelta writer under -race, on a 200-node base graph so every
// relation build and delta extension runs several batches of the kernel on
// pooled workers shared between the readers. Per-generation ground truths
// are computed up front with one-shot evaluations on a scratch copy (the
// naive baseline would be too slow at this node count).
func TestSessionConcurrentShardedDeltaStress(t *testing.T) {
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : ($x|b)a?\n")
	mkDB := func() *graph.DB { return workload.Random(23, 200, 600, "ab") }
	db := mkDB()
	const k = 1

	// Additions, a removal and a mixed batch, all carried entry by entry, as
	// in the small-graph stress test.
	script := []graph.Delta{
		{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(3)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(1), Label: 'b', To: "fresh0"}, {From: "fresh0", Label: 'a', To: db.Name(2)}}},
		{Del: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(3)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(4), Label: 'a', To: db.Name(5)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(2), Label: 'b', To: db.Name(0)}}, Del: []graph.DeltaEdge{{From: db.Name(4), Label: 'a', To: db.Name(5)}}},
	}

	scratch := mkDB()
	truths := make([]*pattern.TupleSet, 0, len(script)+1)
	truth := func() *pattern.TupleSet {
		res, err := tuples(cxrpq.Do(q, scratch, cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
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

	for step, delta := range script {
		time.Sleep(2 * time.Millisecond)
		dbMu.Lock()
		if _, err := publish(sess, delta); err != nil {
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

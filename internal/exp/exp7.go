package exp

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

// e24Query keeps per-session EdgeRel caches alive ($w atoms materialize
// label relations), so every insert delta forces real maintenance work —
// frontier extension of the cached relations — which the lock discipline
// performs under the write lock and the MVCC discipline performs in the
// writer's fork, off the reader path.
const e24Query = "ans(x, y)\nx y : $w{a|b}\ny z : $w+"

// E24SnapshotReadsUnderWrites measures what the MVCC publish step (PR 8)
// buys readers during a write storm. Two disciplines replay the identical
// MutationStream over the identical graph:
//
//   - lock: the historical server shape — one RWMutex, readers evaluate
//     under RLock, the writer applies each delta and eagerly refreshes the
//     session under Lock, so every mutation is quiescent w.r.t. reads;
//   - mvcc: the writer applies to its private DB, snapshots, forks the
//     session (delta-maintaining its caches), and publishes via one atomic
//     pointer store; readers load the pointer and evaluate lock-free on a
//     frozen view.
//
// Both disciplines do the same total maintenance work; only who waits for
// it differs. Reported: read-latency p50/p99 under the storm, the stalled
// read (a probe issued while the writer deliberately sits 25ms inside its
// critical section — under the lock it waits the stall out, under MVCC it
// completes against the previous snapshot, which is the non-blocking
// proof), and WAL recovery throughput (checkpoint-load + replay per MB).
// Each discipline's final answers are checked against a fresh bind.
func E24SnapshotReadsUnderWrites(scale int) *Table {
	t := &Table{ID: "E24", Title: "MVCC snapshot reads under a write storm (global lock vs snapshot publish)",
		Header: []string{"discipline", "reads", "p50", "p99", "stalled read"}}
	const (
		seed    = 11
		steps   = 48
		perStep = 16
		readers = 4
		pool    = 4 // pooled sessions: all maintained per write, like the server
		stall   = 25 * time.Millisecond
		k       = 1
		// Readers pace their probes instead of spinning: a closed loop
		// self-synchronizes with the RWMutex handoff (every woken reader
		// sneaks one free read per write cycle, putting the median on a
		// knife edge), while paced arrivals sample the storm uniformly —
		// the blocked fraction then reflects how long the writer actually
		// holds the lock, which is the quantity under test.
		pace = 500 * time.Microsecond
	)
	base := 250 * scale

	plan, err := cxrpq.PrepareSrc(e24Query)
	if err != nil {
		return fail(t, err)
	}

	type epoch struct{ sess []*cxrpq.Session }

	run := func(mvcc bool) (lat []time.Duration, stalled time.Duration, err error) {
		db, deltas := workload.MutationStream(seed, base, steps, perStep)
		var cur atomic.Pointer[epoch]
		var mu sync.RWMutex
		bind := func(view *graph.DB) *epoch {
			e := &epoch{sess: make([]*cxrpq.Session, pool)}
			for i := range e.sess {
				e.sess[i] = plan.Bind(view)
			}
			return e
		}
		if mvcc {
			cur.Store(bind(db.Snapshot().DB()))
		} else {
			cur.Store(bind(db))
		}
		for _, s := range cur.Load().sess { // warm the rel caches
			if _, err := s.EvalBounded(k); err != nil {
				return nil, 0, err
			}
		}

		read := func(r int) (time.Duration, error) {
			start := time.Now()
			var err error
			if mvcc {
				_, err = cur.Load().sess[r%pool].EvalBounded(k)
			} else {
				mu.RLock()
				_, err = cur.Load().sess[r%pool].EvalBounded(k)
				mu.RUnlock()
			}
			return time.Since(start), err
		}
		write := func(delta graph.Delta, pause time.Duration) error {
			if mvcc {
				// Readers keep the previous publish throughout — the pause
				// and all pool maintenance happen before the pointer store.
				if _, err := db.ApplyDelta(delta); err != nil {
					return err
				}
				time.Sleep(pause)
				view := db.Snapshot().DB()
				old := cur.Load()
				ns := &epoch{sess: make([]*cxrpq.Session, pool)}
				for i, s := range old.sess {
					ns.sess[i] = s.Fork(view)
				}
				cur.Store(ns)
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			if _, err := db.ApplyDelta(delta); err != nil {
				return err
			}
			time.Sleep(pause)
			for _, s := range cur.Load().sess {
				s.Refresh() // the historical eager refresh, under the lock
			}
			return nil
		}

		// Stall probe: the writer sits inside its critical section; a read
		// issued mid-stall must not wait for it under MVCC.
		inStall := make(chan struct{})
		probeErr := make(chan error, 1)
		go func() {
			close(inStall)
			probeErr <- write(deltas[0], stall)
		}()
		<-inStall
		time.Sleep(stall / 4) // land the probe inside the stall window
		stalled, err = read(0)
		if err != nil {
			return nil, 0, err
		}
		if err := <-probeErr; err != nil {
			return nil, 0, err
		}

		// Write storm: back-to-back deltas against paced readers.
		var wg sync.WaitGroup
		done := make(chan struct{})
		lats := make([][]time.Duration, readers)
		errs := make([]error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					case <-time.After(pace):
					}
					d, err := read(r)
					if err != nil {
						errs[r] = err
						return
					}
					lats[r] = append(lats[r], d)
				}
			}(r)
		}
		for _, delta := range deltas[1:] {
			if err := write(delta, 0); err != nil {
				close(done)
				wg.Wait()
				return nil, 0, err
			}
		}
		close(done)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		for _, l := range lats {
			lat = append(lat, l...)
		}

		// Differential: the discipline's final answers equal a fresh bind.
		got, err := cur.Load().sess[0].EvalBounded(k)
		if err != nil {
			return nil, 0, err
		}
		want, err := plan.Bind(db).EvalBounded(k)
		if err != nil {
			return nil, 0, err
		}
		if !got.Equal(want) {
			return nil, 0, fmt.Errorf("final answers diverged from a fresh bind (%d vs %d tuples)", got.Len(), want.Len())
		}
		return lat, stalled, nil
	}

	lockLat, lockStall, err := run(false)
	if err != nil {
		return fail(t, err)
	}
	mvccLat, mvccStall, err := run(true)
	if err != nil {
		return fail(t, err)
	}
	for _, d := range []struct {
		name  string
		lat   []time.Duration
		stall time.Duration
	}{{"global-lock", lockLat, lockStall}, {"mvcc-snapshot", mvccLat, mvccStall}} {
		t.Rows = append(t.Rows, []string{d.name, fmt.Sprint(len(d.lat)),
			ms(pctile(d.lat, 0.50)), ms(pctile(d.lat, 0.99)), ms(d.stall)})
	}

	// Recovery throughput: replay the same stream through a store, then
	// time a cold recovery (checkpoint load + WAL replay) per WAL megabyte.
	recovMS, walMB, err := e24Recovery(seed, base, steps, perStep)
	if err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"wal-recovery", fmt.Sprintf("%.2f MB", walMB),
		fmt.Sprintf("%.1f ms", recovMS), "", ""})

	return t
}

// e24Recovery replays the stream through a graph.Store and times a cold
// open (OpenFollower: pure checkpoint-load + replay, no file mutation).
func e24Recovery(seed int64, base, steps, perStep int) (recovMS, walMB float64, err error) {
	dir, err := os.MkdirTemp("", "e24store")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := graph.OpenStore(dir, graph.StoreOptions{SyncEvery: -1, CheckpointBytes: -1})
	if err != nil {
		return 0, 0, err
	}
	_, deltas := workload.MutationStream(seed, base, steps, perStep)
	db := st.DB()
	for _, delta := range deltas {
		from := db.Revision()
		if _, err := db.ApplyDelta(delta); err != nil {
			return 0, 0, err
		}
		if err := st.Append(delta, from, db.Revision()); err != nil {
			return 0, 0, err
		}
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	walMB = float64(st.Stats().WALBytes) / (1 << 20)
	start := time.Now()
	fo, err := graph.OpenFollower(dir)
	if err != nil {
		return 0, 0, err
	}
	recovMS = float64(time.Since(start).Microseconds()) / 1000
	if fo.DB().Revision() != db.Revision() {
		return 0, 0, fmt.Errorf("recovered revision %d, wrote %d", fo.DB().Revision(), db.Revision())
	}
	return recovMS, walMB, nil
}

// pctile returns the q-quantile of lat by nearest-rank on a sorted copy.
func pctile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

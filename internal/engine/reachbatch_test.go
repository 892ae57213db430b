package engine_test

import (
	"runtime"
	"sync"
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// shardCounts returns the deduplicated shard counts the differential tests
// sweep: 1 (MS-BFS only), 2, GOMAXPROCS and 2·GOMAXPROCS.
func shardCounts() []int {
	p := runtime.GOMAXPROCS(0)
	var out []int
	for _, k := range []int{1, 2, p, 2 * p} {
		dup := false
		for _, seen := range out {
			if seen == k {
				dup = true
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// TestReachBatchMatchesReach is the differential property test of the
// sharded kernel: over randomized graphs both above and below the
// single-shard gate, random regexes, every swept shard count and both
// directions, ReachBatch must return exactly the per-source Reach results.
func TestReachBatchMatchesReach(t *testing.T) {
	const letters = "abc"
	for seed := int64(0); seed < 12; seed++ {
		rng := workload.NewRNG(seed*131 + 7)
		// Odd seeds stay below the minShardedNodes gate (inline worker),
		// even seeds go well above it (goroutines + frontier exchange).
		nodes := 40 + rng.Intn(40)
		if seed%2 == 0 {
			nodes = 200 + rng.Intn(300)
		}
		db := workload.Random(seed, nodes, 4*nodes, letters)
		n := randNode(rng, letters, 1+rng.Intn(3))
		m, err := xregex.Compile(n, []rune(letters))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ix := db.Index()
		rm := reverseNFA(m)
		srcs := make([]int, db.NumNodes())
		for i := range srcs {
			srcs[i] = i
		}
		for _, forward := range []bool{true, false} {
			nfa := m
			if !forward {
				nfa = rm
			}
			want := reachFan(ix, automata.NewSubsetCache(nfa), srcs, forward)
			for _, k := range shardCounts() {
				got := engine.ReachBatch(ix, db.Partition(k), automata.NewSubsetCache(nfa), srcs, forward)
				for u := range want {
					if !equalInts(got[u], want[u]) {
						t.Fatalf("seed %d nodes %d shards %d forward %v: src %d: got %v want %v",
							seed, nodes, k, forward, u, got[u], want[u])
					}
				}
			}
		}
	}
}

// TestReachBatchManySources covers the MS-BFS batch boundary: more sources
// than one machine word, duplicates (each gets its own result), and
// out-of-range sources (nil, like Reach).
func TestReachBatchManySources(t *testing.T) {
	db := workload.Random(3, 200, 900, "ab")
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*"), []rune("ab"))
	srcs := make([]int, 0, 150)
	for i := 0; i < 140; i++ {
		srcs = append(srcs, i%db.NumNodes())
	}
	srcs = append(srcs, 5, 5, -1, db.NumNodes(), 5) // duplicates + out of range
	got := engine.ReachBatch(ix, db.Partition(4), automata.NewSubsetCache(m), srcs, true)
	if len(got) != len(srcs) {
		t.Fatalf("got %d results for %d sources", len(got), len(srcs))
	}
	c := automata.NewSubsetCache(m)
	for i, src := range srcs {
		want := reach(ix, c, src, true)
		if !equalInts(got[i], want) {
			t.Fatalf("source %d (=%d): got %v want %v", i, src, got[i], want)
		}
	}
}

// TestReachBatchStaleOrNilPartition: a nil partition and a partition built
// for a different node count must both fall back to the single-shard path,
// still returning correct results.
func TestReachBatchStaleOrNilPartition(t *testing.T) {
	db := workload.Random(9, 160, 700, "ab")
	stale := db.Partition(4)
	db.AddNode() // partition is now stale
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("(a|b)+"), []rune("ab"))
	srcs := []int{0, 3, 50, 160}
	c := automata.NewSubsetCache(m)
	for _, part := range []*graph.Partition{nil, stale} {
		got := engine.ReachBatch(ix, part, automata.NewSubsetCache(m), srcs, true)
		for i, src := range srcs {
			if want := reach(ix, c, src, true); !equalInts(got[i], want) {
				t.Fatalf("part=%v src %d: got %v want %v", part != nil, src, got[i], want)
			}
		}
	}
}

// TestReachOutOfRangeSource: sources outside the node range have no hits
// (and no levels), in range ones always at least an allocated search.
func TestReachOutOfRangeSource(t *testing.T) {
	db := workload.Random(21, 90, 400, "abc")
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("a(b|c)*a?"), []rune("abc"))
	c := automata.NewSubsetCache(m)
	for _, src := range []int{-1, db.NumNodes()} {
		if hits, levs := engine.Reach(ix, c, src, true, engine.ReachOpts{Levels: true}); hits != nil || levs != nil {
			t.Fatalf("src %d: Reach = (%v, %v) for an out-of-range source", src, hits, levs)
		}
	}
}

// TestReachBatchCounters: a sharded run over a graph above the gate must
// record batches, edge volume and (with ≥2 shards) cross-shard exchange
// traffic in the kernel counters.
func TestReachBatchCounters(t *testing.T) {
	engine.ResetReachBatchStats()
	db := workload.GMark(11, 400)
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*"), db.Alphabet())
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	engine.ReachBatch(ix, db.Partition(4), automata.NewSubsetCache(m), srcs, true)
	st := engine.ReachBatchStats()
	if st.Batches == 0 || st.Sources != uint64(len(srcs)) || st.Edges == 0 {
		t.Fatalf("counters not recorded: %+v", st)
	}
	if st.Exchanged == 0 {
		t.Fatal("4-shard run on a 400-node graph exchanged nothing cross-shard")
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard breakdown has %d entries, want 4", len(st.PerShard))
	}
	var perEdges, perEx uint64
	for _, v := range st.PerShard {
		perEdges += v.Edges
		perEx += v.Exchanged
	}
	if perEdges != st.Edges || perEx != st.Exchanged {
		t.Fatalf("per-shard volumes (%d, %d) do not sum to totals (%d, %d)", perEdges, perEx, st.Edges, st.Exchanged)
	}
}

// TestReachBatchCountersSingleShard: a call that ran inline reports into the
// totals and leaves the per-shard table — and its lock — alone.
func TestReachBatchCountersSingleShard(t *testing.T) {
	engine.ResetReachBatchStats()
	db := workload.GMark(11, 400)
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*"), db.Alphabet())
	engine.ReachBatch(db.Index(), db.Partition(1), automata.NewSubsetCache(m), []int{0, 1, 2}, true)
	st := engine.ReachBatchStats()
	if st.Batches != 1 || st.Sources != 3 || st.Edges == 0 || st.Levels == 0 {
		t.Fatalf("totals not recorded: %+v", st)
	}
	if len(st.PerShard) != 0 || st.Exchanged != 0 {
		t.Fatalf("single-shard run touched the per-shard table: %+v", st)
	}
}

// TestReachBatchConcurrentSharedCache: concurrent ReachBatch calls may
// share one SubsetCache (the on-the-fly determinization interns under its
// own lock); results must stay correct. Run with -race.
func TestReachBatchConcurrentSharedCache(t *testing.T) {
	db := workload.GMark(13, 300)
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("(a|b)+c?"), db.Alphabet())
	shared := automata.NewSubsetCache(m)
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	want := reachFan(ix, automata.NewSubsetCache(m), srcs, true)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := db.Partition(1 + g%4)
			got := engine.ReachBatch(ix, part, shared, srcs, true)
			for u := range want {
				if !equalInts(got[u], want[u]) {
					errs <- "goroutine result diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestSetShards: the knob round-trips and Shards() normalizes upward to a
// power of two.
func TestSetShards(t *testing.T) {
	old := engine.SetShards(6)
	defer engine.SetShards(old)
	if got := engine.Shards(); got != 8 {
		t.Fatalf("Shards()=%d after SetShards(6), want 8", got)
	}
	if prev := engine.SetShards(0); prev != 6 {
		t.Fatalf("SetShards returned %d, want 6", prev)
	}
	if got := engine.Shards(); got&(got-1) != 0 || got < 1 {
		t.Fatalf("default Shards()=%d not a power of two", got)
	}
}

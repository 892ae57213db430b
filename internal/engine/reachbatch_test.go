package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// allNodes returns 0..n-1.
func allNodes(n int) []int {
	srcs := make([]int, n)
	for i := range srcs {
		srcs[i] = i
	}
	return srcs
}

// perSource answers srcs one scalar Reach (with levels) at a time: the
// reference the batched kernel is held to.
func perSource(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool) (hits [][]int, levs [][]int32) {
	hits, levs = make([][]int, len(srcs)), make([][]int32, len(srcs))
	for i, src := range srcs {
		hits[i], levs[i] = engine.Reach(ix, c, src, forward, engine.ReachOpts{Levels: true})
	}
	return hits, levs
}

// TestReachBatchMatchesReach is the differential property test of the batched
// kernel: over randomized graphs of under and over one batch of nodes, random
// regexes and both directions, ReachBatchEx must return exactly the
// per-source Reach results, hits and levels.
func TestReachBatchMatchesReach(t *testing.T) {
	const letters = "abc"
	for seed := int64(0); seed < 12; seed++ {
		rng := workload.NewRNG(seed*131 + 7)
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
		srcs := allNodes(db.NumNodes())
		for _, forward := range []bool{true, false} {
			nfa := m
			if !forward {
				nfa = reverseNFA(m)
			}
			wantH, wantL := perSource(ix, automata.NewSubsetCache(nfa), srcs, forward)
			got := engine.ReachBatchEx(ix, automata.NewSubsetCache(nfa), srcs, forward, engine.ReachOpts{Levels: true})
			for u := range srcs {
				if !equalInts(got.Hits[u], wantH[u]) || !reflect.DeepEqual(got.Levs[u], wantL[u]) {
					t.Fatalf("seed %d nodes %d forward %v: src %d: got %v at %v, want %v at %v",
						seed, nodes, forward, u, got.Hits[u], got.Levs[u], wantH[u], wantL[u])
				}
			}
			if plain := engine.ReachBatchEx(ix, automata.NewSubsetCache(nfa), srcs, forward, engine.ReachOpts{}); plain.Levs != nil || !reflect.DeepEqual(plain.Hits, got.Hits) {
				t.Fatalf("seed %d forward %v: the call without levels differs from the call with", seed, forward)
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
	// The deprecated five-parameter form the benchmark's replay calls: its
	// partition argument is nil whatever count is asked for, and ignored.
	got := engine.ReachBatch(ix, db.Partition(engine.Shards()), automata.NewSubsetCache(m), srcs, true)
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

// TestReachBatchCounters: a call over every node reports one batch per 64
// sources, every source, and its edge and level volume into the kernel
// counters.
func TestReachBatchCounters(t *testing.T) {
	engine.ResetReachBatchStats()
	db := workload.GMark(11, 400)
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*"), db.Alphabet())
	srcs := allNodes(db.NumNodes())
	engine.ReachBatchEx(db.Index(), automata.NewSubsetCache(m), srcs, true, engine.ReachOpts{})
	st := engine.ReachBatchStats()
	if want := uint64(len(srcs)+engine.BatchWidth-1) / engine.BatchWidth; st.Batches != want || st.Sources != uint64(len(srcs)) || st.Edges == 0 || st.Levels == 0 {
		t.Fatalf("counters not recorded (want %d batches of %d sources): %+v", want, len(srcs), st)
	}
}

// TestReachBatchCountersSingleShard: a call of under one batch of sources is
// one batch, and out-of-range sources are not counted. (The name predates the
// removal of the sharded kernel.)
func TestReachBatchCountersSingleShard(t *testing.T) {
	engine.ResetReachBatchStats()
	db := workload.GMark(11, 400)
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*"), db.Alphabet())
	engine.ReachBatchEx(db.Index(), automata.NewSubsetCache(m), []int{0, 1, -1, 2}, true, engine.ReachOpts{})
	st := engine.ReachBatchStats()
	if st.Batches != 1 || st.Sources != 3 || st.Edges == 0 || st.Levels == 0 {
		t.Fatalf("totals not recorded: %+v", st)
	}
}

// TestReachBatchConcurrentSharedCache: concurrent many-batch calls may share
// one SubsetCache (the on-the-fly determinization interns under its own
// lock); every call must equal the per-source searches, hits and levels.
// The node count is not a multiple of the batch width. Run with -race.
func TestReachBatchConcurrentSharedCache(t *testing.T) {
	db := workload.GMark(13, 300)
	ix := db.Index()
	if ix.NumNodes()%engine.BatchWidth == 0 || ix.NumNodes() < 2*engine.BatchWidth {
		t.Fatalf("%d nodes: want several batches and a partial one", ix.NumNodes())
	}
	m := xregex.MustCompile(xregex.MustParse("(a|b)+c?"), db.Alphabet())
	srcs := allNodes(ix.NumNodes())
	wantH, wantL := perSource(ix, automata.NewSubsetCache(m), srcs, true)
	shared := automata.NewSubsetCache(m)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := engine.ReachBatchEx(ix, shared, srcs, true, engine.ReachOpts{Levels: true})
			if !reflect.DeepEqual(got.Hits, wantH) || !reflect.DeepEqual(got.Levs, wantL) || got.Truncated {
				errs <- "goroutine result diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

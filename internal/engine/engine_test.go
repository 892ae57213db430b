package engine_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// referenceReach is the pre-refactor product BFS kept verbatim as the
// test-only reference implementation: it explores (node, NFA-state-set)
// configurations keyed by strings and regroups edge labels at every visited
// node. The engine's integer-interned Reach must agree with it exactly.
func referenceReach(db *graph.DB, m *automata.NFA, src int, forward bool) []int {
	type cfg struct {
		node int
		set  string
	}
	start := m.EpsClosure(m.Start())
	seen := map[cfg]bool{}
	var hits []int
	hitSet := map[int]bool{}
	queue := []struct {
		node int
		set  automata.StateSet
	}{{src, start}}
	seen[cfg{src, start.Key()}] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if m.ContainsFinal(cur.set) && !hitSet[cur.node] {
			hitSet[cur.node] = true
			hits = append(hits, cur.node)
		}
		var edges []graph.Edge
		if forward {
			edges = db.Out(cur.node)
		} else {
			edges = db.In(cur.node)
		}
		bySym := map[rune][]int{}
		for _, e := range edges {
			if forward {
				bySym[e.Label] = append(bySym[e.Label], e.To)
			} else {
				bySym[e.Label] = append(bySym[e.Label], e.From)
			}
		}
		for sym, targets := range bySym {
			next := m.Step(cur.set, int32(sym))
			if len(next) == 0 {
				continue
			}
			k := next.Key()
			for _, v := range targets {
				c := cfg{v, k}
				if !seen[c] {
					seen[c] = true
					queue = append(queue, struct {
						node int
						set  automata.StateSet
					}{v, next})
				}
			}
		}
	}
	// The reference collected hits in BFS order; Reach returns them sorted.
	sortInts(hits)
	return hits
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// reverseNFA mirrors the engine-side reversal used for backward searches.
func reverseNFA(m *automata.NFA) *automata.NFA {
	r := automata.New(m.NumStates() + 1)
	newStart := m.NumStates()
	r.SetStart(newStart)
	for p := 0; p < m.NumStates(); p++ {
		for _, t := range m.Transitions(p) {
			r.AddTr(t.To, t.Label, p)
		}
		if m.IsFinal(p) {
			r.AddTr(newStart, automata.Epsilon, p)
		}
	}
	r.SetFinal(m.Start(), true)
	return r
}

// randNode generates a random classical regex AST over letters.
func randNode(r interface{ Intn(int) int }, letters string, depth int) xregex.Node {
	if depth <= 0 {
		return xregex.Word(string(letters[r.Intn(len(letters))]))
	}
	switch r.Intn(8) {
	case 0:
		return &xregex.Cat{Kids: []xregex.Node{
			randNode(r, letters, depth-1), randNode(r, letters, depth-1),
		}}
	case 1:
		return &xregex.Alt{Kids: []xregex.Node{
			randNode(r, letters, depth-1), randNode(r, letters, depth-1),
		}}
	case 2:
		return &xregex.Star{Kid: randNode(r, letters, depth-1)}
	case 3:
		return &xregex.Plus{Kid: randNode(r, letters, depth-1)}
	case 4:
		return &xregex.Opt{Kid: randNode(r, letters, depth-1)}
	case 5:
		return xregex.Word("")
	default:
		return xregex.Word(string(letters[r.Intn(len(letters))]))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReachAgreesWithReference is the differential property test of the
// refactor: on randomized graphs and regexes, the integer-interned engine
// must compute exactly the same reachability sets as the legacy map-based
// BFS, forward and backward, from every source.
func TestReachAgreesWithReference(t *testing.T) {
	const letters = "abc"
	for seed := int64(0); seed < 40; seed++ {
		rng := workload.NewRNG(seed*77 + 13)
		db := workload.Random(seed, 4+rng.Intn(8), 6+rng.Intn(20), letters)
		n := randNode(rng, letters, 1+rng.Intn(3))
		m, err := xregex.Compile(n, []rune(letters))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ix := db.Index()
		fc := automata.NewSubsetCache(m)
		rm := reverseNFA(m)
		rc := automata.NewSubsetCache(rm)
		for src := 0; src < db.NumNodes(); src++ {
			got := reach(ix, fc, src, true)
			want := referenceReach(db, m, src, true)
			if !equalInts(got, want) {
				t.Fatalf("seed %d regex %s: forward Reach(%d) = %v, reference %v",
					seed, xregex.String(n), src, got, want)
			}
			got = reach(ix, rc, src, false)
			want = referenceReach(db, rm, src, false)
			if !equalInts(got, want) {
				t.Fatalf("seed %d regex %s: backward Reach(%d) = %v, reference %v",
					seed, xregex.String(n), src, got, want)
			}
		}
	}
}

// reach is the plain hit-set form of engine.Reach.
func reach(ix *graph.Index, c *automata.SubsetCache, src int, forward bool) []int {
	hits, _ := engine.Reach(ix, c, src, forward, engine.ReachOpts{})
	return hits
}

// reachFan runs reach from every source across the worker pool (engine.Fan)
// and returns the per-source results in input order — the per-source
// baseline the batched kernel is compared against.
func reachFan(workers int, ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool) [][]int {
	out := make([][]int, len(srcs))
	engine.Fan(workers, len(srcs), func(i int) { out[i] = reach(ix, c, srcs[i], forward) })
	return out
}

// TestFanMatchesSequential checks that the parallel fan-out returns exactly
// the per-source results, for every worker-pool width.
// TestSupportMatchesReach: a set-source sweep finds exactly the nodes the
// single-source searches find between them, in both directions, on a graph
// with more than 64 labels and for ε-accepting automata (where every node is
// its own hit); with first it finds one of them exactly when there is one. A
// sweep reports into the kernel counters as one batch of n sources.
func TestSupportMatchesReach(t *testing.T) {
	wide := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-=_~^%" // 69 labels
	r := rand.New(rand.NewSource(11))
	for gi, labels := range []string{"ab", "abc", wide} {
		n := 40 + 37*gi
		db := workload.Random(int64(20+gi), n, 3*n, labels)
		ix, sigma := db.Index(), []rune(labels)
		for li := 0; li < 12; li++ {
			label := randNode(r, labels[:2+gi], 3)
			if li == 0 {
				label = xregex.MustParse("(ab)*") // ε-accepting
			}
			m := xregex.MustCompile(label, sigma)
			for _, forward := range []bool{true, false} {
				c := automata.NewSubsetCache(m)
				if !forward {
					c = automata.NewSubsetCache(reverseNFA(m))
				}
				name := fmt.Sprintf("graph %d, %s, forward %v", gi, xregex.String(label), forward)
				want := map[int]bool{}
				for src := 0; src < n; src++ {
					for _, v := range reach(ix, c, src, forward) {
						want[v] = true
					}
				}
				before := engine.ReachBatchStats()
				sup, k, cut := engine.Support(ix, c, forward, false, nil)
				after := engine.ReachBatchStats()
				if got := bitList(sup); len(got) != len(want) || k != len(want) || cut {
					t.Fatalf("%s: support %v (count %d, cut %v), want the %d nodes %v", name, got, k, cut, len(want), want)
				}
				for _, v := range bitList(sup) {
					if !want[v] {
						t.Fatalf("%s: node %d is in the support, no search ends there", name, v)
					}
				}
				if after.Batches != before.Batches+1 || after.Sources != before.Sources+uint64(n) || after.Levels == before.Levels {
					t.Fatalf("%s: sweep counted as %+v after %+v", name, after, before)
				}
				sup, k, _ = engine.Support(ix, c, forward, true, nil)
				if first := bitList(sup); k != len(first) || (k > 0) != (len(want) > 0) || (k > 0 && !want[first[0]]) {
					t.Fatalf("%s: first-hit sweep found %v, the support has %d nodes", name, first, len(want))
				}
			}
		}
	}
}

func bitList(b []uint64) (out []int) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

func TestFanMatchesSequential(t *testing.T) {
	const letters = "ab"
	db := workload.Random(5, 14, 40, letters)
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*b"), []rune(letters))
	ix := db.Index()
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	want := make([][]int, len(srcs))
	seq := automata.NewSubsetCache(m)
	for i, s := range srcs {
		want[i] = reach(ix, seq, s, true)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got := reachFan(workers, ix, automata.NewSubsetCache(m), srcs, true)
		for i := range srcs {
			if !equalInts(got[i], want[i]) {
				t.Fatalf("workers=%d: fan[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestReachSharedCacheConcurrent hammers one shared SubsetCache from many
// goroutines (via engine.Fan) and checks the results stay correct — the cache
// is the piece shared across parallel branch evaluations.
func TestReachSharedCacheConcurrent(t *testing.T) {
	const letters = "abc"
	db := workload.Random(9, 30, 120, letters)
	m := xregex.MustCompile(xregex.MustParse("(a|b)(a|b|c)*c?"), []rune(letters))
	ix := db.Index()
	shared := automata.NewSubsetCache(m)
	srcs := make([]int, 0, db.NumNodes()*4)
	for r := 0; r < 4; r++ {
		for i := 0; i < db.NumNodes(); i++ {
			srcs = append(srcs, i)
		}
	}
	got := reachFan(0, ix, shared, srcs, true)
	for i, s := range srcs {
		want := referenceReach(db, m, s, true)
		if !equalInts(got[i], want) {
			t.Fatalf("concurrent fan[%d] (src %d) = %v, want %v", i, s, got[i], want)
		}
	}
}

func TestFanCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		hit := make([]int32, n)
		engine.Fan(0, n, func(i int) { hit[i]++ })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

// TestFanPanicReraisedOnCaller: a panic on a worker goroutine reaches the
// goroutine that called Fan — once, carrying the value and the worker's stack
// — after the other workers have finished what they claimed; with one worker
// it is the caller's own panic. Fan is usable afterwards.
func TestFanPanicReraisedOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 64
		var ran atomic.Int32
		var got any
		func() {
			defer func() { got = recover() }()
			engine.Fan(workers, n, func(i int) {
				if i == 5 || i == 40 {
					panic(fmt.Sprintf("task %d", i))
				}
				ran.Add(1)
			})
		}()
		if got == nil || !strings.Contains(fmt.Sprint(got), "task ") {
			t.Fatalf("workers=%d: Fan recovered %v, want the task's panic", workers, got)
		}
		// Chunks are two indices wide here (n/(8w)), so a worker that panics
		// gives up little: most of the other tasks still ran.
		if workers > 1 && ran.Load() < n/2 {
			t.Fatalf("workers=%d: only %d of %d tasks ran beside the panicking ones", workers, ran.Load(), n)
		}
		if workers > 1 && !strings.Contains(fmt.Sprint(got), "engine_test.go") {
			t.Fatalf("workers=%d: the re-raised panic lost the worker's stack: %v", workers, got)
		}
		hit := make([]int32, n)
		engine.Fan(workers, n, func(i int) { hit[i]++ })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: after the panic index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := engine.Workers(3, 10); w != 3 {
		t.Fatalf("Workers(3, 10) = %d, want 3", w)
	}
	if w := engine.Workers(3, 2); w != 2 {
		t.Fatalf("Workers(3, 2) = %d, want 2", w)
	}
	if w := engine.Workers(0, 1<<20); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, many) = %d, want GOMAXPROCS", w)
	}
}

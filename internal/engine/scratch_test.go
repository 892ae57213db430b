package engine

// Tests of the kernels' scratch discipline (white-box: they hold a scratch
// across calls, which the public entry points leave to a pool).

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

func isZero[T comparable](s []T) bool {
	var zero T
	for _, x := range s {
		if x != zero {
			return false
		}
	}
	return true
}

// allZero reports whether the scratch honours its idle invariant, over the
// whole capacity of every array it ever allocated.
func (s *scalarScratch) allZero() bool {
	zero := len(s.queue) == 0 && len(s.touched) == 0 && len(s.heap) == 0 && s.nHits == 0
	for _, vb := range s.visited {
		zero = zero && isZero(vb[:cap(vb)])
	}
	for _, d := range s.dist {
		zero = zero && isZero(d[:cap(d)])
	}
	return zero && isZero(s.hitBits[:cap(s.hitBits)]) && isZero(s.hitLev[:cap(s.hitLev)])
}

func (w *batchWorker) allZero() bool {
	zero := len(w.touched) == 0 && len(w.frontier) == 0 && len(w.next) == 0 && w.bud == nil
	for id := range w.visited {
		zero = zero && isZero(w.visited[id][:cap(w.visited[id])]) && isZero(w.pend[id][:cap(w.pend[id])])
	}
	return zero && isZero(w.hits[:cap(w.hits)]) && isZero(w.hitSum[:cap(w.hitSum)]) && isZero(w.hitLev[:cap(w.hitLev)])
}

// randomDB builds a graph of n nodes n0..n<n-1> and m random edges over the
// given labels.
func randomDB(seed int64, n, m int, labels string) *graph.DB {
	r := rand.New(rand.NewSource(seed))
	db := graph.New()
	for i := 0; i < n; i++ {
		db.Node(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < m; i++ {
		db.AddEdge(r.Intn(n), rune(labels[r.Intn(len(labels))]), r.Intn(n))
	}
	return db
}

// countdown is a context that reports done from its k-th poll on, which
// makes "the budget fires mid-search" repeat exactly: the kernels poll at
// fixed points (per level, per 256 settles).
type countdown struct {
	context.Context
	left atomic.Int32
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *countdown) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		return closedChan
	}
	return nil
}

func cutAfter(polls int32) *Budget {
	c := &countdown{Context: context.Background()}
	c.left.Store(polls)
	return NewBudget(c, time.Time{})
}

// reachCall is one kernel invocation of the reuse table; opts builds fresh
// options (a countdown budget is spent by one evaluation).
type reachCall struct {
	name    string
	ix      *graph.Index
	c       *automata.SubsetCache
	srcs    []int // nil: scalar search from src
	src     int
	sweep   bool // set-source sweep (Support) instead of a search from src
	first   bool // ... that stops at its first hit
	forward bool
	opts    func() ReachOpts
}

// outcome is everything a call returns, in comparable form.
type outcome struct {
	Hits      [][]int
	Levs      [][]int32
	Truncated bool
}

func (rc *reachCall) on(s *scalarScratch, b *batchWorker) outcome {
	if rc.sweep {
		sup, n, cut := s.support(rc.ix, rc.c, rc.forward, rc.first, rc.opts().Budget, nil)
		return supportOutcome(sup, n, cut)
	}
	if rc.srcs == nil {
		hits, levs := s.reach(rc.ix, rc.c, rc.src, rc.forward, rc.opts())
		return outcome{Hits: [][]int{hits}, Levs: [][]int32{levs}}
	}
	res := b.reach(rc.ix, rc.c, rc.srcs, rc.forward, rc.opts())
	return outcome{res.Hits, res.Levs, res.Truncated}
}

// supportOutcome renders a Support result as an outcome: the set bits as the
// one hit list, the population count checked against them.
func supportOutcome(sup []uint64, n int, cut bool) outcome {
	hits := []int{}
	for wi, w := range sup {
		for ; w != 0; w &= w - 1 {
			hits = append(hits, wi<<6+bits.TrailingZeros64(w))
		}
	}
	if len(hits) != n {
		hits = append(hits, -n) // a wrong count fails every comparison
	}
	return outcome{Hits: [][]int{hits}, Truncated: cut}
}

// public runs the call through the pooled entry points.
func (rc *reachCall) public() outcome {
	if rc.sweep {
		return supportOutcome(Support(rc.ix, rc.c, rc.forward, rc.first, rc.opts().Budget, nil))
	}
	if rc.srcs == nil {
		hits, levs := Reach(rc.ix, rc.c, rc.src, rc.forward, rc.opts())
		return outcome{Hits: [][]int{hits}, Levs: [][]int32{levs}}
	}
	res := ReachBatchEx(rc.ix, rc.c, rc.srcs, rc.forward, rc.opts())
	return outcome{res.Hits, res.Levs, res.Truncated}
}

// reuseTable is a sequence of searches chosen so that every piece of scratch
// is handed from a call that sized, filled or keyed it one way to a call
// that needs it another way.
func reuseTable(t *testing.T) []reachCall {
	const n = 220 // not a multiple of 64
	db := randomDB(5, n, 700, "abc")
	ix := db.Index()
	other := randomDB(6, 150, 500, "bcd") // same symbol count, different symbols behind the ids
	sigma := []rune("abcd")
	compile := func(expr string) *automata.SubsetCache {
		return automata.NewSubsetCache(xregex.MustCompile(xregex.MustParse(expr), sigma))
	}
	c1, c2 := compile("a(b|c)*a?"), compile("(a|b)+c?")

	// An insert-only delta: the index of the new revision is extended, not
	// rebuilt — a different Index with more nodes over the same symbol table.
	var add []graph.DeltaEdge
	for i := 0; i < 12; i++ {
		add = append(add, graph.DeltaEdge{From: fmt.Sprintf("n%d", 7*i), Label: 'a', To: fmt.Sprintf("x%d", i%5)},
			graph.DeltaEdge{From: fmt.Sprintf("x%d", i%5), Label: 'b', To: fmt.Sprintf("n%d", 11*i)})
	}
	if _, err := db.ApplyDelta(graph.Delta{Add: add}); err != nil {
		t.Fatal(err)
	}
	ext := db.Index()
	if db.MaintStats().IndexExtended == 0 || ext == ix || ext.NumSyms() != ix.NumSyms() || ext.NumNodes() <= n {
		t.Fatal("the delta did not extend the index: the case is not exercised")
	}

	plain := func() ReachOpts { return ReachOpts{} }
	levels := func() ReachOpts { return ReachOpts{Levels: true} }
	weighted := func() ReachOpts {
		return ReachOpts{Weight: func(l rune) int32 { return 1 + 2*(l-'a') }}
	}
	cut := func(polls int32, o func() ReachOpts) func() ReachOpts {
		return func() ReachOpts { r := o(); r.Budget = cutAfter(polls); return r }
	}
	seq := func(k, n int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = (i * 7) % n
		}
		return out
	}

	calls := []reachCall{
		{name: "scalar", ix: ix, c: c1, src: 3, forward: true, opts: plain},
		{name: "scalar other automaton", ix: ix, c: c2, src: 3, forward: true, opts: plain},
		{name: "scalar backward", ix: ix, c: c1, src: 9, opts: plain},
		{name: "scalar levels", ix: ix, c: c1, src: 3, forward: true, opts: levels},
		{name: "scalar levels off", ix: ix, c: c1, src: 5, forward: true, opts: plain},
		{name: "scalar weighted", ix: ix, c: c1, src: 3, forward: true, opts: weighted},
		{name: "scalar unit after weighted", ix: ix, c: c1, src: 3, forward: true, opts: levels},
		{name: "scalar cut", ix: ix, c: c2, src: 3, forward: true, opts: cut(2, levels)},
		{name: "scalar after cut", ix: ix, c: c2, src: 4, forward: true, opts: levels},
		{name: "scalar weighted cut", ix: ix, c: c2, src: 3, forward: true, opts: cut(1, weighted)},
		{name: "scalar weighted after cut", ix: ix, c: c2, src: 4, forward: true, opts: weighted},
		{name: "scalar other index", ix: other.Index(), c: c2, src: 5, forward: true, opts: levels},
		{name: "scalar extended index", ix: ext, c: c2, src: ext.NumNodes() - 2, forward: true, opts: levels},
		{name: "scalar first index again", ix: ix, c: c2, src: 3, forward: true, opts: levels},
		{name: "sweep", ix: ix, c: c1, sweep: true, forward: true, opts: plain},
		{name: "sweep backward", ix: ix, c: c2, sweep: true, opts: plain},
		{name: "sweep first hit", ix: ix, c: c1, sweep: true, first: true, forward: true, opts: plain},
		{name: "scalar after first hit", ix: ix, c: c1, src: 3, forward: true, opts: levels},
		{name: "sweep cut", ix: ix, c: c2, sweep: true, forward: true, opts: cut(1, plain)},
		{name: "sweep after cut", ix: ix, c: c2, sweep: true, forward: true, opts: plain},
		{name: "sweep extended index", ix: ext, c: c2, sweep: true, forward: true, opts: plain},
		{name: "scalar after sweeps", ix: ix, c: c2, src: 3, forward: true, opts: levels},
	}
	for _, k := range []int{1, 64, 65, n} {
		calls = append(calls, reachCall{name: fmt.Sprintf("batch of %d", k), ix: ix, c: c1, srcs: seq(k, n), forward: true, opts: plain})
	}
	return append(calls,
		reachCall{name: "batch other automaton", ix: ix, c: c2, srcs: seq(65, n), forward: true, opts: plain},
		reachCall{name: "batch backward", ix: ix, c: c1, srcs: seq(65, n), opts: plain},
		reachCall{name: "batch out of range", ix: ix, c: c1, srcs: []int{-1, 3, n, 3, n + 64}, forward: true, opts: levels},
		reachCall{name: "batch levels", ix: ix, c: c2, srcs: seq(n, n), forward: true, opts: levels},
		reachCall{name: "batch levels off", ix: ix, c: c2, srcs: seq(70, n), forward: true, opts: plain},
		reachCall{name: "batch cut", ix: ix, c: c2, srcs: seq(n, n), forward: true, opts: cut(4, levels)},
		reachCall{name: "batch after cut", ix: ix, c: c2, srcs: seq(n, n), forward: true, opts: levels},
		reachCall{name: "batch other index", ix: other.Index(), c: c2, srcs: seq(150, 150), forward: true, opts: levels},
		reachCall{name: "batch empty index", ix: graph.New().Index(), c: c2, srcs: []int{0, -1}, forward: true, opts: levels},
		reachCall{name: "batch extended index", ix: ext, c: c2, srcs: seq(ext.NumNodes(), ext.NumNodes()), forward: true, opts: levels},
		reachCall{name: "batch first index again", ix: ix, c: c2, srcs: seq(n, n), forward: true, opts: levels},
	)
}

// TestScratchReuseDifferential: a search on scratch other searches have used
// must return what it returns on first use — hits, levels, Truncated — and
// leave the scratch all-zero, also when a budget cut it short. The same
// calls then run through the pooled entry points from engine.Fan goroutines,
// so `go test -race` sees a scratch handed from one goroutine to another.
func TestScratchReuseDifferential(t *testing.T) {
	calls := reuseTable(t)
	want := make([]outcome, len(calls))
	truncated := 0
	s, b := new(scalarScratch), new(batchWorker)
	for i := range calls {
		rc := &calls[i]
		want[i] = rc.on(new(scalarScratch), new(batchWorker))
		got := rc.on(s, b)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: on used scratch\n got %v\nwant %v", rc.name, got, want[i])
		}
		if !s.allZero() || !b.allZero() {
			t.Fatalf("%s: scratch not all-zero after the call", rc.name)
		}
		if want[i].Truncated {
			truncated++
		}
	}
	if truncated < 2 {
		t.Fatalf("%d calls were cut by their budget, want the sweep and the batch", truncated)
	}

	const rounds = 6
	Fan(8, rounds*len(calls), func(i int) {
		rc := &calls[(i*5)%len(calls)] // neighbours in the table land on different goroutines
		if got := rc.public(); !reflect.DeepEqual(got, want[(i*5)%len(calls)]) {
			t.Errorf("%s: through the pool\n got %v\nwant %v", rc.name, got, want[(i*5)%len(calls)])
		}
	})
}

// TestPoolsHoldOnlyZeroScratch: a Reach whose Weight panics on its k-th call
// and a batch abandoned by a context that is done between two levels must not
// leave dirty scratch in the pools — the searches that follow, on whatever the
// pools hand out, equal the reference computed before. The abandoned batch
// itself returns a sound prefix: genuine hits at their true levels, flagged
// Truncated.
func TestPoolsHoldOnlyZeroScratch(t *testing.T) {
	db := randomDB(17, 300, 1500, "abc")
	ix := db.Index()
	c := automata.NewSubsetCache(xregex.MustCompile(xregex.MustParse("a(b|c)*a?"), []rune("abc")))
	srcs := make([]int, ix.NumNodes())
	wantH, wantL := make([][]int, len(srcs)), make([][]int32, len(srcs))
	for u := range srcs {
		srcs[u] = u
		wantH[u], wantL[u] = Reach(ix, c, u, true, ReachOpts{Levels: true})
	}
	weight := Weight(func(l rune) int32 { return 1 + 2*(l-'a') })
	wantWH, wantWL := Reach(ix, c, 7, true, ReachOpts{Weight: weight})

	for k := 1; k <= 3; k++ {
		calls := 0
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("the Weight did not panic on call %d", k)
				}
			}()
			Reach(ix, c, 7, true, ReachOpts{Weight: func(l rune) int32 {
				if calls++; calls == k {
					panic("weight")
				}
				return weight(l)
			}})
		}()

		cut := ReachBatchEx(ix, c, srcs, true, ReachOpts{Levels: true, Budget: cutAfter(int32(1 + k))})
		if !cut.Truncated {
			t.Fatalf("k=%d: the abandoned batch does not report truncation", k)
		}
		found := 0
		for u := range srcs {
			for j, v := range cut.Hits[u] {
				at := slices.Index(wantH[u], v)
				if at < 0 || wantL[u][at] != cut.Levs[u][j] {
					t.Fatalf("k=%d: abandoned batch reports %d -> %d at level %d, which is not in the full answer", k, u, v, cut.Levs[u][j])
				}
				found++
			}
		}
		if found == 0 {
			t.Fatalf("k=%d: cut before the first level, nothing abandoned mid-search", k)
		}
	}

	for i := 0; i < 100; i++ {
		switch i % 10 {
		case 0:
			got := ReachBatchEx(ix, c, srcs, true, ReachOpts{Levels: true})
			if !reflect.DeepEqual(got.Hits, wantH) || !reflect.DeepEqual(got.Levs, wantL) {
				t.Fatalf("search %d: a batch on pooled scratch differs from the reference", i)
			}
		case 1:
			if h, l := Reach(ix, c, 7, true, ReachOpts{Weight: weight}); !reflect.DeepEqual(h, wantWH) || !reflect.DeepEqual(l, wantWL) {
				t.Fatalf("search %d: a weighted search on pooled scratch differs from the reference", i)
			}
		default:
			src := (i * 13) % ix.NumNodes()
			if h, l := Reach(ix, c, src, true, ReachOpts{Levels: true}); !reflect.DeepEqual(h, wantH[src]) || !reflect.DeepEqual(l, wantL[src]) {
				t.Fatalf("search %d: a scalar search on pooled scratch differs from the reference", i)
			}
		}
	}
}

// TestBatchRowsDoNotAlias: the rows of a batch share one slab, and holders
// keep them (relations, the probe memo, delta maintenance). Appending to one
// must reallocate, not write into the next source's row.
func TestBatchRowsDoNotAlias(t *testing.T) {
	db := randomDB(8, 90, 400, "ab")
	c := automata.NewSubsetCache(xregex.MustCompile(xregex.MustParse("(a|b)+"), []rune("ab")))
	srcs := make([]int, db.NumNodes()+1)
	for i := range srcs {
		srcs[i] = i // the last one is out of range
	}
	res := ReachBatchEx(db.Index(), c, srcs, true, ReachOpts{Levels: true})
	want := make([][]int, len(srcs))
	empty := 0
	for i, row := range res.Hits {
		want[i] = append([]int(nil), row...)
		if row == nil {
			empty++
			if res.Levs[i] != nil {
				t.Fatalf("source %d: no hits but levels %v", i, res.Levs[i])
			}
		} else if cap(row) != len(row) || cap(res.Levs[i]) != len(row) {
			t.Fatalf("source %d: row of %d hits has capacity %d, levels %d", i, len(row), cap(row), cap(res.Levs[i]))
		}
	}
	if res.Hits[len(srcs)-1] != nil || empty == len(srcs) {
		t.Fatalf("out-of-range source has hits %v; %d of %d rows empty", res.Hits[len(srcs)-1], empty, len(srcs))
	}
	for i := range res.Hits {
		res.Hits[i] = append(res.Hits[i], -1)
		res.Levs[i] = append(res.Levs[i], -1)
	}
	for i, row := range res.Hits {
		if !reflect.DeepEqual(row[:len(row)-1], want[i]) && len(want[i]) > 0 {
			t.Fatalf("source %d: row changed under a neighbour's append: %v, was %v", i, row[:len(row)-1], want[i])
		}
	}
}

// TestKernelSteadyStateAllocs: after a warm-up call the kernels run on
// retained scratch. A scalar Reach allocates its result slices and nothing
// that grows with the graph or with the automaton; a 64-source batch a
// constant number of objects.
func TestKernelSteadyStateAllocs(t *testing.T) {
	sigma := []rune("ab")
	small := xregex.MustCompile(xregex.MustParse("a(a|b)*"), sigma)
	big := xregex.MustCompile(xregex.MustParse("(a|b)*a(a|b)(a|b)(a|b)(a|b)"), sigma) // 2^5 subset states
	srcs := make([]int, BatchWidth)
	for i := range srcs {
		srcs[i] = i
	}
	weight := Weight(func(l rune) int32 { return 1 + (l - 'a') })
	measure := func(n int, m *automata.NFA) (scalar, levels, weighted, batch float64) {
		db := randomDB(int64(n), n, 4*n, "ab")
		ix, c := db.Index(), automata.NewSubsetCache(m)
		// The scratch is held here rather than left to the pool (which may
		// drop it, and under -race does at random); AllocsPerRun's own first
		// call is the warm-up.
		s, bs := new(scalarScratch), new(batchWorker)
		run := func(f func()) float64 { return testing.AllocsPerRun(5, f) }
		scalar = run(func() { s.reach(ix, c, 1, true, ReachOpts{}) })
		levels = run(func() { s.reach(ix, c, 1, true, ReachOpts{Levels: true}) })
		weighted = run(func() { s.reach(ix, c, 1, true, ReachOpts{Weight: weight}) })
		batch = run(func() { bs.reach(ix, c, srcs, true, ReachOpts{Levels: true}) })
		return
	}
	s1, l1, w1, b1 := measure(300, small)
	s2, l2, w2, b2 := measure(3000, big)
	if s1 > 1 || l1 > 2 {
		t.Errorf("warm scalar Reach allocates %v objects (%v with levels), want the result slices only", s1, l1)
	}
	if w1 > 3 { // the two results and the per-symbol weight table
		t.Errorf("warm weighted Reach allocates %v objects, want 3", w1)
	}
	if b1 > 4 { // the two result tables and one slab each
		t.Errorf("warm 64-source ReachBatchEx allocates %v objects, want 4", b1)
	}
	if s2 != s1 || l2 != l1 || w2 != w1 || b2 != b1 {
		t.Errorf("allocations grow with the graph or the automaton: scalar %v→%v, levels %v→%v, weighted %v→%v, batch %v→%v",
			s1, s2, l1, l2, w1, w2, b1, b2)
	}
}

// TestScratchGrowsWithHeadroom: scratch sized for an n-node graph serves the
// same graph grown by 8 nodes — an update_read arrival batch — without
// reallocating: the first search after the growth allocates no more than a
// warm one, whose only objects are its results.
func TestScratchGrowsWithHeadroom(t *testing.T) {
	c := automata.NewSubsetCache(xregex.MustCompile(xregex.MustParse("a(a|b)*"), []rune("ab")))
	srcs := make([]int, BatchWidth)
	for i := range srcs {
		srcs[i] = i
	}
	for _, n := range []int{100, 600, 5000} {
		db := randomDB(int64(n), n, 3*n, "ab")
		s, bs := new(scalarScratch), new(batchWorker)
		search := func(ix *graph.Index) func() {
			return func() {
				s.reach(ix, c, 1, true, ReachOpts{Levels: true})
				bs.reach(ix, c, srcs, true, ReachOpts{Levels: true})
			}
		}
		search(db.Index())() // the scratch sized for n
		for i := range 8 {
			u := db.Node(fmt.Sprintf("new%d", i))
			db.AddEdge(u, 'a', i)
		}
		ix := db.Index()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		search(ix)()
		runtime.ReadMemStats(&after)
		first := after.Mallocs - before.Mallocs
		if warm := testing.AllocsPerRun(5, search(ix)); float64(first) > warm {
			t.Errorf("n = %d: the first search after 8 new nodes allocated %d objects, a warm one %v: the scratch was reallocated", n, first, warm)
		}
		if !s.allZero() || !bs.allZero() {
			t.Fatalf("n = %d: idle scratch is not all-zero over its capacity", n)
		}
	}
}

// BenchmarkSupport: what it costs to learn which nodes of the benchmark's
// update_read graph shape (600 nodes, two labels, out-degree 1-2 each) have an
// outgoing a+ path — by one set-source sweep, and by the all-pairs batches a
// relation build runs (ecrpq.BuildRelation), whose rows say the same.
func BenchmarkSupport(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	db := randomDB(1, 600, 0, "ab")
	for u := 0; u < 600; u++ {
		for _, l := range "ab" {
			for k := 0; k <= r.Intn(2); k++ {
				db.AddEdge(u, l, r.Intn(600))
			}
		}
	}
	m := xregex.MustCompile(xregex.MustParse("a+"), []rune("ab"))
	ix, c := db.Index(), automata.NewSubsetCache(m) // a+ reversed is a+
	all := make([]int, ix.NumNodes())
	for i := range all {
		all[i] = i
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Support(ix, c, false, false, nil, nil)
		}
	})
	b.Run("relation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReachBatchEx(ix, c, all, true, ReachOpts{})
		}
	})
}

func benchGraph(b *testing.B) (*graph.Index, *automata.SubsetCache) {
	b.Helper()
	db := randomDB(1, 5000, 20000, "abcdefghijklmnopqrstuvwxyz")
	m := xregex.MustCompile(xregex.MustParse("a(b|c)*d?"), db.Alphabet())
	return db.Index(), automata.NewSubsetCache(m)
}

// BenchmarkReach: one single-source probe — the unit of work of a lazy
// join — over a 26-label graph whose automaton survives on four labels.
func BenchmarkReach(b *testing.B) {
	ix, c := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reach(ix, c, i%ix.NumNodes(), true, ReachOpts{})
	}
}

// BenchmarkReachBatch: the multi-source kernel with levels on the same
// graph — one 64-source batch, the unit of a frontier prefetch, and every
// node as a source, the 79 batches of a relation build.
func BenchmarkReachBatch(b *testing.B) {
	ix, c := benchGraph(b)
	b.Run("1batch", func(b *testing.B) {
		srcs := make([]int, BatchWidth)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range srcs {
				srcs[j] = (i*BatchWidth + j) % ix.NumNodes()
			}
			ReachBatchEx(ix, c, srcs, true, ReachOpts{Levels: true})
		}
	})
	b.Run("79batches", func(b *testing.B) {
		srcs := make([]int, ix.NumNodes())
		for i := range srcs {
			srcs[i] = i
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReachBatchEx(ix, c, srcs, true, ReachOpts{Levels: true})
		}
	})
}

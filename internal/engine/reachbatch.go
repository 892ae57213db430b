package engine

// This file is the multi-source product-reachability kernel: a
// level-synchronous MS-BFS over the product graph × subset automaton. Up to
// BatchWidth sources are packed into one machine word, and a source-set
// bitmask is propagated through every product configuration (node, set-id).
// One sweep over an adjacency span answers the corresponding step of up to 64
// independent Reach calls — an algorithmic saving over one search per source,
// because shared prefix structure of the searches is walked once instead of
// once per source.
//
// A batch runs on the goroutine that asked for it, on one pooled worker that
// owns the whole node range: no goroutine and no lock inside a search.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// BatchWidth is the number of sources packed into one MS-BFS machine word.
const BatchWidth = 64

// KernelStats is a snapshot of Counters, exported by the cxrpq-serve /stats
// endpoint per database: batches run, BFS levels driven, sources seeded and
// product edges expanded (a single-source search counts as one batch of one
// source, a Support sweep as one batch of n sources).
type KernelStats struct {
	Batches uint64 `json:"batches"`
	Levels  uint64 `json:"levels"`
	Sources uint64 `json:"sources"`
	Edges   uint64 `json:"edges"`
}

// Counters is where a kernel call reports its work (ReachOpts.Count): atomic
// adds, so concurrent requests never queue on a statistics lock. The zero
// value is ready; a nil *Counters counts nothing.
type Counters struct {
	batches, levels, sources, edges atomic.Uint64
}

func (c *Counters) add(batches, levels, sources, edges uint64) {
	if c == nil {
		return
	}
	c.batches.Add(batches)
	c.levels.Add(levels)
	c.sources.Add(sources)
	c.edges.Add(edges)
}

// Load returns a snapshot of the counters.
func (c *Counters) Load() KernelStats {
	return KernelStats{Batches: c.batches.Load(), Levels: c.levels.Load(), Sources: c.sources.Load(), Edges: c.edges.Load()}
}

// batchWorker is the reusable state of the batched kernel: one worker runs
// the batches of a ReachBatchEx call one after another and is handed on
// through batchPool. visited/pend are indexed [set id][node] and hold source
// masks. Like scalarScratch, every array is all-zero between batches: insert
// logs each configuration it is the first to visit and each node it is the
// first to hit, gather zeroes the hit state as it reads it, and clear zeroes
// the logged configurations — pend included, which a budget-cut search leaves
// non-zero.
type batchWorker struct {
	ix      *graph.Index
	forward bool
	wantLev bool      // record first-hit levels
	bud     *Budget   // optional; polled once per level
	count   *Counters // optional; where unbind reports the call's work
	depth   int32     // current BFS level (0 while seeding)

	live    liveRows   // per-set-id acceptance and surviving transitions
	visited [][]uint64 // [id][node] -> mask of sources that reached it
	pend    [][]uint64 // [id][node] -> mask not yet expanded
	touched []cfg      // every configuration with a non-zero visited mask

	hits   []uint64 // [node] -> mask of sources hitting node finally
	hitSum []uint64 // bitset over nodes: hits[node] != 0
	hitLev []int32  // [node*64+srcbit] -> first-hit level (sized only under wantLev)

	frontier, next []cfg
	masks          []uint64 // per-frontier-entry pend snapshot (scratch, see expand)

	batches, seeded, edges, levels uint64 // work since bind, reported by unbind
}

// bind readies an idle worker for one ReachBatchEx call.
func (w *batchWorker) bind(ix *graph.Index, c *automata.SubsetCache, forward bool, o ReachOpts) {
	w.ix, w.forward, w.wantLev, w.bud, w.count = ix, forward, o.Levels, o.Budget, o.Count
	w.live.bind(c, ix)
	n := ix.NumNodes()
	w.hits = grown(w.hits, n)
	w.hitSum = grown(w.hitSum, (n+63)/64)
	if w.wantLev {
		w.hitLev = grown(w.hitLev, n*BatchWidth)
	}
}

// unbind reports the call's work into its counters and drops what is
// request-scoped: the pool must not pin a budget or counters.
func (w *batchWorker) unbind() {
	w.count.add(w.batches, w.levels, w.seeded, w.edges)
	w.batches, w.seeded, w.levels, w.edges = 0, 0, 0, 0
	w.bud, w.count = nil, nil
}

// state returns the visited and pending mask arrays of set id, sized for the
// index.
func (w *batchWorker) state(id int32) ([]uint64, []uint64) {
	for int(id) >= len(w.visited) {
		w.visited = append(w.visited, nil)
		w.pend = append(w.pend, nil)
	}
	if n := w.ix.NumNodes(); len(w.visited[id]) != n {
		w.visited[id] = grown(w.visited[id], n)
		w.pend[id] = grown(w.pend[id], n)
	}
	return w.visited[id], w.pend[id]
}

// insert merges mask into configuration (v, id), queueing it for the next
// level when it gains its first pending bits.
func (w *batchWorker) insert(v, id int32, mask uint64) {
	vb, pb := w.state(id)
	seen := vb[v]
	delta := mask &^ seen
	if delta == 0 {
		return
	}
	if seen == 0 {
		w.touched = append(w.touched, cfg{v, id})
	}
	vb[v] = seen | delta
	if pb[v] == 0 {
		w.next = append(w.next, cfg{v, id})
	}
	pb[v] |= delta
	if !w.live.state(id).final {
		return
	}
	fresh := delta &^ w.hits[v]
	if fresh == 0 {
		return
	}
	w.hits[v] |= fresh
	w.hitSum[v>>6] |= 1 << (uint(v) & 63)
	if w.wantLev {
		// Level-synchronous BFS: a source bit's first hit on a node is at
		// its minimal level, so recording once at first sight is exact.
		for m := fresh; m != 0; m &= m - 1 {
			w.hitLev[int(v)*BatchWidth+bits.TrailingZeros64(m)] = w.depth
		}
	}
}

// expand walks the current frontier: for every live configuration it steps
// the subset automaton over the adjacency span of each symbol the state
// survives on and inserts the targets.
func (w *batchWorker) expand() {
	// Snapshot-and-clear every frontier entry's pending mask before stepping
	// any of them. An insert below may land on a frontier configuration that
	// has not had its turn yet; if its bits merged into the live pend mask
	// they would be expanded in this same pass — one level early — silently
	// understating every downstream first-hit level (the hit set stays
	// correct, the BFS distances do not). With the masks drained up front such
	// an insert sees pend == 0 and re-queues the configuration for the next
	// level, which is when its new bits are actually one step old.
	w.masks = w.masks[:0]
	for _, cur := range w.frontier {
		pb := w.pend[cur.id]
		w.masks = append(w.masks, pb[cur.node])
		pb[cur.node] = 0
	}
	for qi, cur := range w.frontier {
		mask := w.masks[qi]
		if mask == 0 {
			continue
		}
		for _, e := range w.live.state(cur.id).edges {
			tgts := adjacent(w.ix, cur.node, e.sym, w.forward)
			w.edges += uint64(len(tgts))
			for _, v := range tgts {
				w.insert(v, e.next, mask)
			}
		}
	}
	w.frontier = w.frontier[:0]
}

// clear zeroes what the batch's search wrote — the visited and pending masks
// of the logged configurations — and empties the frontiers. With the hit
// state zeroed by gather the worker is idle again: all-zero, only the live
// rows and the allocated storage kept.
func (w *batchWorker) clear() {
	for _, t := range w.touched {
		w.visited[t.id][t.node] = 0
		w.pend[t.id][t.node] = 0
	}
	w.touched = w.touched[:0]
	w.frontier = w.frontier[:0]
	w.next = w.next[:0]
}

// batch runs one MS-BFS from at most BatchWidth sources and writes the
// per-source rows into hits (and levs when non-nil), the batch's window of the
// result. Out-of-range sources are skipped; a budget cut ends the search at a
// level boundary with the rows found so far. The worker is all-zero again on
// return.
func (w *batchWorker) batch(srcs []int, hits [][]int, levs [][]int32) {
	n, startID := w.ix.NumNodes(), w.live.c.Start()
	w.depth = 0
	for si, src := range srcs {
		if src >= 0 && src < n {
			w.insert(int32(src), startID, 1<<uint(si))
			w.seeded++
		}
	}
	if len(w.next) == 0 {
		return
	}
	w.batches++
	for {
		w.frontier, w.next = w.next, w.frontier
		w.depth++
		w.expand()
		if len(w.next) == 0 || w.bud.Canceled() {
			break
		}
		w.levels++
	}
	w.gather(hits, levs)
	w.clear()
}

// BatchResult is the extended kernel output. Levs is parallel to Hits
// (Levs[i][j] is the shortest accepted-path edge count from srcs[i] to
// Hits[i][j]) and nil unless Levels was requested. Truncated reports that
// the budget fired: the hits are sound but possibly incomplete, and callers
// must not install them in cross-query caches.
//
// The rows of one 64-source batch are carved from one slab as full slice
// expressions (capacity = length), so holders may keep and even append to a
// row without writing into its neighbour; a source without hits has a nil
// row.
type BatchResult struct {
	Hits      [][]int
	Levs      [][]int32
	Truncated bool
}

// batchPool hands batch workers from one call to the next; like scalarPool
// its content is the collector's to drop. A call that panics never puts its
// worker back, so the pool only ever holds all-zero workers.
var batchPool = sync.Pool{New: func() any { return new(batchWorker) }}

// ReachBatchEx answers Reach for every source in srcs and returns the
// per-source results in input order (each sorted ascending; nil for
// out-of-range sources, like Reach), under the options of Reach applied to
// the whole call; see BatchResult. The sources run as MS-BFS batches of
// BatchWidth, one after another on the calling goroutine; the budget is
// polled before every batch and at every level. The SubsetCache may be shared
// with concurrent ReachBatchEx/Reach calls; the graph must be quiescent (the
// usual contract).
//
// The MS-BFS word-packing is level-synchronous and cannot batch Dijkstra
// frontiers, nor stop one source of a batch at its first hit, so a weighted
// or First call runs one Reach per source instead — correct,
// budget-honoring, but without the 64-way sharing.
func ReachBatchEx(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	if opts.Weight != nil || opts.First {
		return reachEach(ix, c, srcs, forward, opts)
	}
	w := batchPool.Get().(*batchWorker)
	res := w.reach(ix, c, srcs, forward, opts)
	batchPool.Put(w)
	return res
}

// reachEach answers a weighted or First ReachBatchEx request: one Reach per
// source, in order. Truncation is detected through the budget, like the
// batched kernel: a canceled sweep leaves some sources' lists sound but
// incomplete (or missing entirely), so the result must not enter cross-query
// caches.
func reachEach(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	res := BatchResult{Hits: make([][]int, len(srcs))}
	if opts.Levels || opts.Weight != nil {
		res.Levs = make([][]int32, len(srcs))
	}
	for i := 0; i < len(srcs) && !opts.Budget.Canceled(); i++ {
		h, l := Reach(ix, c, srcs[i], forward, opts)
		if res.Hits[i] = h; res.Levs != nil {
			res.Levs[i] = l
		}
	}
	res.Truncated = opts.Budget.Canceled()
	return res
}

// reach runs the batches of one call on the worker and leaves it all-zero.
func (w *batchWorker) reach(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	res := BatchResult{Hits: make([][]int, len(srcs))}
	if opts.Levels {
		res.Levs = make([][]int32, len(srcs))
	}
	w.bind(ix, c, forward, opts)
	for base := 0; base < len(srcs) && !w.bud.Canceled(); base += BatchWidth {
		end := min(base+BatchWidth, len(srcs))
		var levs [][]int32
		if res.Levs != nil {
			levs = res.Levs[base:end]
		}
		w.batch(srcs[base:end], res.Hits[base:end], levs)
	}
	res.Truncated = w.bud.Canceled()
	w.unbind()
	return res
}

// gather turns the hit masks into the per-source rows of one batch and zeroes
// the hit state as it reads it. Only nodes flagged in the hit summary are
// looked at — n/64 words, not n. A first pass counts each source's hits, one
// slab is sized from the total, and a second pass fills every row in place:
// nodes are visited ascending, so each row comes out sorted.
func (w *batchWorker) gather(hits [][]int, levs [][]int32) {
	var cnt, pos [BatchWidth]int
	for wi, sum := range w.hitSum {
		for ; sum != 0; sum &= sum - 1 {
			for m := w.hits[wi<<6+bits.TrailingZeros64(sum)]; m != 0; m &= m - 1 {
				cnt[bits.TrailingZeros64(m)]++
			}
		}
	}
	total := 0
	for si := range hits {
		pos[si] = total
		total += cnt[si]
	}
	if total == 0 {
		return
	}
	slab := make([]int, total)
	var levSlab []int32
	if levs != nil {
		levSlab = make([]int32, total)
	}
	for wi, sum := range w.hitSum {
		if sum == 0 {
			continue
		}
		w.hitSum[wi] = 0
		for ; sum != 0; sum &= sum - 1 {
			v := wi<<6 + bits.TrailingZeros64(sum)
			m := w.hits[v]
			w.hits[v] = 0
			for ; m != 0; m &= m - 1 {
				si := bits.TrailingZeros64(m)
				slab[pos[si]] = v
				if levSlab != nil {
					levSlab[pos[si]] = w.hitLev[v*BatchWidth+si]
					w.hitLev[v*BatchWidth+si] = 0
				}
				pos[si]++
			}
		}
	}
	for si := range hits {
		if from, to := pos[si]-cnt[si], pos[si]; from < to {
			hits[si] = slab[from:to:to]
			if levSlab != nil {
				levs[si] = levSlab[from:to:to]
			}
		}
	}
}

// ReachBatch is ReachBatchEx without options, under its old signature.
//
// Deprecated: kept for cmd/cxrpq-bench/layers.go, its only caller, which a
// performance change may not edit; the partition argument is ignored. The
// next benchmark change calls ReachBatchEx and deletes this.
func ReachBatch(ix *graph.Index, _ *graph.Partition, c *automata.SubsetCache, srcs []int, forward bool) [][]int {
	return ReachBatchEx(ix, c, srcs, forward, ReachOpts{}).Hits
}

// Shards returns 1.
//
// Deprecated: see ReachBatch; same caller, same fate.
func Shards() int { return 1 }

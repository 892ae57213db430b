package engine

// This file is the sharded multi-source product-reachability kernel: a
// level-synchronous frontier-exchange BFS over the product graph × subset
// automaton, with MS-BFS source batching.
//
// Sharding (frontier exchange): the interned node space is cut into
// contiguous degree-balanced ranges by graph.Partition, and each shard is
// owned by exactly one goroutine. All per-shard state — visited masks,
// pending frontiers, the live rows (live.go) — is shard-private, so the
// inner loop takes no locks. A product edge whose target lands in another
// shard is buffered into a per-(src-shard, dst-shard) exchange queue; the
// queues are drained at the two level barriers (expand → barrier → drain →
// barrier → swap), which also carry the happens-before edges the
// termination count relies on.
//
// MS-BFS batching: up to BatchWidth sources are packed into one machine
// word, and a source-set bitmask is propagated through every product
// configuration (node, set-id). One sweep over an adjacency span answers
// the corresponding step of up to 64 independent Reach calls — an
// algorithmic saving over the per-source fan that holds even at
// GOMAXPROCS=1, because shared prefix structure of the searches is walked
// once instead of once per source.
//
// Small graphs (or a single-shard partition) skip the goroutines and
// exchange machinery entirely and run the same batched worker inline.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// BatchWidth is the number of sources packed into one MS-BFS machine word.
const BatchWidth = 64

// minShardedNodes gates the goroutine + exchange machinery: below this node
// count the per-level barrier cost dominates any locality win, so the
// kernel runs the single worker inline (still source-batched).
const minShardedNodes = 128

// shardCount holds the configured shard count; 0 means GOMAXPROCS.
var shardCount atomic.Int64

// SetShards sets the shard count used when callers ask for the default
// partition (0 restores the GOMAXPROCS default). The value is normalized to
// a power of two on use. It returns the previous setting.
func SetShards(n int) int { return int(shardCount.Swap(int64(n))) }

// Shards returns the effective shard count: the SetShards value, or
// GOMAXPROCS, rounded up to the next power of two. Callers pass it to
// graph.DB.Partition, which additionally clamps to the node count.
func Shards() int {
	s := int(shardCount.Load())
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if s < 1 {
		s = 1
	}
	if s&(s-1) != 0 {
		s = 1 << bits.Len(uint(s))
	}
	return s
}

// ShardVolume is the per-shard work profile of the batched kernel: product
// edges expanded by the shard's goroutine and configurations it exported
// into exchange queues.
type ShardVolume struct {
	Edges     uint64 `json:"edges"`
	Exchanged uint64 `json:"exchanged"`
}

// KernelStats is a snapshot of the ReachBatch counters, exported by the
// cxrpq-serve /stats endpoint for shard-count tuning: batch/level/source
// totals, global edge and exchange volume, and the per-shard breakdown
// (indexed by shard id of the most recent partition width used).
type KernelStats struct {
	Shards    int           `json:"shards"`
	Batches   uint64        `json:"batches"`
	Levels    uint64        `json:"levels"`
	Sources   uint64        `json:"sources"`
	Edges     uint64        `json:"edges"`
	Exchanged uint64        `json:"exchanged"`
	PerShard  []ShardVolume `json:"per_shard"`
}

// kstat holds the counters behind KernelStats. The totals are atomic adds:
// every ReachBatchEx call reports into them, the chunk-of-one calls of a
// lazy scan included, and concurrent requests must not queue on a
// statistics lock. Only the per-shard table needs the mutex, and only calls
// that ran sharded touch it.
var kstat struct {
	batches, levels, sources, edges, exchanged atomic.Uint64

	mu       sync.Mutex
	perShard []ShardVolume
}

// ReachBatchStats returns a snapshot of the batched-kernel counters.
func ReachBatchStats() KernelStats {
	out := KernelStats{
		Shards:    Shards(),
		Batches:   kstat.batches.Load(),
		Levels:    kstat.levels.Load(),
		Sources:   kstat.sources.Load(),
		Edges:     kstat.edges.Load(),
		Exchanged: kstat.exchanged.Load(),
	}
	kstat.mu.Lock()
	out.PerShard = append([]ShardVolume(nil), kstat.perShard...)
	kstat.mu.Unlock()
	return out
}

// ResetReachBatchStats zeroes the batched-kernel counters (tests).
func ResetReachBatchStats() {
	for _, c := range []*atomic.Uint64{&kstat.batches, &kstat.levels, &kstat.sources, &kstat.edges, &kstat.exchanged} {
		c.Store(0)
	}
	kstat.mu.Lock()
	kstat.perShard = nil
	kstat.mu.Unlock()
}

// exMsg is one cross-shard product edge: configuration (node, id) reached
// by the sources in mask, to be inserted by the owning shard at the next
// level barrier.
type exMsg struct {
	node, id int32
	mask     uint64
}

// shardWorker is the state owned by one shard's goroutine, reused from batch
// to batch and, through batchScratch, from call to call. visited/pend are
// indexed [set id][node - lo] and hold source masks. Like scalarScratch,
// every array is all-zero between batches: insert logs each configuration it
// is the first to visit and each node it is the first to hit, gather zeroes
// the hit state as it reads it, and clear zeroes the logged configurations —
// pend included, which a budget-cut search leaves non-zero.
type shardWorker struct {
	idx     int
	lo, hi  int32
	ix      *graph.Index
	part    *graph.Partition // nil when running single-shard
	forward bool
	wantLev bool    // record first-hit levels
	bud     *Budget // optional; polled once per level
	depth   int32   // current BFS level (0 while seeding)

	live    liveRows   // per-set-id acceptance and surviving transitions
	visited [][]uint64 // [id][node-lo] -> mask of sources that reached it
	pend    [][]uint64 // [id][node-lo] -> mask not yet expanded
	touched []cfg      // every configuration with a non-zero visited mask

	hits   []uint64 // [node-lo] -> mask of sources hitting node finally
	hitSum []uint64 // bitset over node-lo: hits[node-lo] != 0
	hitLev []int32  // [(node-lo)*64+srcbit] -> first-hit level (sized only under wantLev)

	frontier, next []cfg
	masks          []uint64  // per-frontier-entry pend snapshot (scratch, see expand)
	outbox         [][]exMsg // [dst shard] -> exported configurations

	edges     uint64 // product edges expanded
	exchanged uint64 // configurations exported cross-shard
	levels    uint64 // levels driven (counted by shard 0 only)
}

// bind readies an idle worker for one ReachBatchEx call as shard idx of
// shards, owning nodes [lo, hi).
func (w *shardWorker) bind(idx, shards int, lo, hi int32, ix *graph.Index, part *graph.Partition, c *automata.SubsetCache, forward bool, o ReachOpts) {
	w.idx, w.lo, w.hi = idx, lo, hi
	w.ix, w.part, w.forward, w.wantLev, w.bud = ix, part, forward, o.Levels, o.Budget
	w.live.bind(c, ix)
	sz := int(hi - lo)
	w.hits = grown(w.hits, sz)
	w.hitSum = grown(w.hitSum, (sz+63)/64)
	if w.wantLev {
		w.hitLev = grown(w.hitLev, sz*BatchWidth)
	}
	for len(w.outbox) < shards {
		w.outbox = append(w.outbox, nil)
	}
	w.edges, w.exchanged, w.levels = 0, 0, 0
}

// state returns the visited and pending mask arrays of set id, sized for the
// shard's range.
func (w *shardWorker) state(id int32) ([]uint64, []uint64) {
	for int(id) >= len(w.visited) {
		w.visited = append(w.visited, nil)
		w.pend = append(w.pend, nil)
	}
	if sz := int(w.hi - w.lo); len(w.visited[id]) != sz {
		w.visited[id] = grown(w.visited[id], sz)
		w.pend[id] = grown(w.pend[id], sz)
	}
	return w.visited[id], w.pend[id]
}

// insert merges mask into configuration (v, id), queueing it for the next
// level when it gains its first pending bits. v must be owned by w.
func (w *shardWorker) insert(v, id int32, mask uint64) {
	vb, pb := w.state(id)
	li := v - w.lo
	seen := vb[li]
	delta := mask &^ seen
	if delta == 0 {
		return
	}
	if seen == 0 {
		w.touched = append(w.touched, cfg{v, id})
	}
	vb[li] = seen | delta
	if pb[li] == 0 {
		w.next = append(w.next, cfg{v, id})
	}
	pb[li] |= delta
	if !w.live.state(id).final {
		return
	}
	fresh := delta &^ w.hits[li]
	if fresh == 0 {
		return
	}
	w.hits[li] |= fresh
	w.hitSum[li>>6] |= 1 << (uint(li) & 63)
	if w.wantLev {
		// Level-synchronous BFS: a source bit's first hit on a node is at
		// its minimal level, so recording once at first sight is exact.
		for m := fresh; m != 0; m &= m - 1 {
			w.hitLev[int(li)*BatchWidth+bits.TrailingZeros64(m)] = w.depth
		}
	}
}

// expand walks the current frontier: for every live configuration it steps
// the subset automaton over the adjacency span of each symbol the state
// survives on, inserting local targets directly and buffering cross-shard
// targets into the outbox.
func (w *shardWorker) expand() {
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
		li := cur.node - w.lo
		w.masks = append(w.masks, pb[li])
		pb[li] = 0
	}
	for qi, cur := range w.frontier {
		mask := w.masks[qi]
		if mask == 0 {
			continue
		}
		for _, e := range w.live.state(cur.id).edges {
			tgts := adjacent(w.ix, cur.node, e.sym, w.forward)
			if len(tgts) == 0 {
				continue
			}
			w.edges += uint64(len(tgts))
			if w.part == nil {
				for _, v := range tgts {
					w.insert(v, e.next, mask)
				}
				continue
			}
			for _, v := range tgts {
				if ds := w.part.ShardOf(v); ds == w.idx {
					w.insert(v, e.next, mask)
				} else {
					w.outbox[ds] = append(w.outbox[ds], exMsg{node: v, id: e.next, mask: mask})
					w.exchanged++
				}
			}
		}
	}
	w.frontier = w.frontier[:0]
}

// clear zeroes what the batch's search wrote — the visited and pending masks
// of the logged configurations — and empties the frontiers. With the hit
// state zeroed by gather the worker is idle again: all-zero, only the live
// rows and the allocated storage kept.
func (w *shardWorker) clear() {
	for _, t := range w.touched {
		li := t.node - w.lo
		w.visited[t.id][li] = 0
		w.pend[t.id][li] = 0
	}
	w.touched = w.touched[:0]
	w.frontier = w.frontier[:0]
	w.next = w.next[:0]
}

// barrier is a reusable counting barrier for the level-synchronous workers.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// kernel is the shared state of one sharded batch run.
type kernel struct {
	workers []*shardWorker
	bar     *barrier
	sizes   []int // per-shard next-frontier sizes, valid between the barriers
	bud     *Budget
	stopped bool // set by shard 0 between the barriers; read by all after
}

// run is the per-shard goroutine body: expand → barrier → drain inbound
// exchange queues → publish next-frontier size → barrier → clear own
// outboxes, swap frontiers, terminate when the global frontier is empty.
// The second barrier both publishes the sizes and fences the outbox reads
// before their owner reuses the buffers. The budget is polled by shard 0
// only and the verdict published through the same barrier, so every shard
// leaves the loop at the same level (a per-shard poll could disagree and
// deadlock the barrier).
func (w *shardWorker) run(k *kernel) {
	for {
		w.expand()
		k.bar.wait()
		for _, src := range k.workers {
			for _, m := range src.outbox[w.idx] {
				w.insert(m.node, m.id, m.mask)
			}
		}
		k.sizes[w.idx] = len(w.next)
		if w.idx == 0 && k.bud.Canceled() {
			k.stopped = true
		}
		k.bar.wait()
		total := 0
		for _, s := range k.sizes {
			total += s
		}
		for i := range w.outbox {
			w.outbox[i] = w.outbox[i][:0]
		}
		w.frontier, w.next = w.next, w.frontier
		if total == 0 || k.stopped {
			return
		}
		w.depth++
		if w.idx == 0 {
			w.levels++
		}
	}
}

// runSingle is the inline single-shard loop: same batched expansion, no
// barriers, no exchange.
func (w *shardWorker) runSingle() {
	for {
		w.expand()
		if len(w.next) == 0 || w.bud.Canceled() {
			return
		}
		w.frontier, w.next = w.next, w.frontier
		w.depth++
		w.levels++
	}
}

// ReachBatch answers Reach for every source in srcs with the sharded
// MS-BFS kernel and returns the per-source results in input order (each
// sorted ascending; nil for out-of-range sources, like Reach). part is the
// shard map to run under — normally db.Partition(Shards()); a nil or stale
// partition (node count differing from ix) and small graphs fall back to a
// single inline shard. The SubsetCache may be shared with concurrent
// ReachBatch/Reach calls; the graph must be quiescent (the usual contract).
func ReachBatch(ix *graph.Index, part *graph.Partition, c *automata.SubsetCache, srcs []int, forward bool) [][]int {
	return ReachBatchEx(ix, part, c, srcs, forward, ReachOpts{}).Hits
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

// batchScratch is the reusable state of one ReachBatchEx call: its shard
// workers, as many as the widest partition it has run under.
type batchScratch struct {
	workers []*shardWorker
}

// batchPool hands batch scratch from one call to the next; like scalarPool
// its content is the collector's to drop.
var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// ReachBatchEx is ReachBatch under the options of Reach, applied to the whole
// batch; see BatchResult. The MS-BFS word-packing is level-synchronous and
// cannot batch Dijkstra frontiers, so a weighted batch runs as a per-source
// Reach fan instead of the sharded kernel — correct, budget-honoring, but
// without the 64-way sharing.
func ReachBatchEx(ix *graph.Index, part *graph.Partition, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	if opts.Weight != nil {
		return reachBatchWeighted(ix, c, srcs, forward, opts)
	}
	b := batchPool.Get().(*batchScratch)
	res := b.reach(ix, part, c, srcs, forward, opts)
	batchPool.Put(b)
	return res
}

// reach runs the batched kernel on the scratch and leaves it all-zero.
func (b *batchScratch) reach(ix *graph.Index, part *graph.Partition, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	res := BatchResult{Hits: make([][]int, len(srcs))}
	if opts.Levels {
		res.Levs = make([][]int32, len(srcs))
	}
	bud := opts.Budget
	n := ix.NumNodes()
	if n == 0 || len(srcs) == 0 {
		return res
	}
	shards := 1
	if part != nil && part.NumNodes() == n && n >= minShardedNodes {
		shards = part.NumShards()
	}
	if shards == 1 {
		part = nil
	}
	for len(b.workers) < shards {
		b.workers = append(b.workers, new(shardWorker))
	}
	workers := b.workers[:shards]
	for i, w := range workers {
		lo, hi := int32(0), int32(n)
		if part != nil {
			lo, hi = part.Range(i)
		}
		w.bind(i, shards, lo, hi, ix, part, c, forward, opts)
	}
	startID := c.Start()
	var batches, seeded uint64
	for base := 0; base < len(srcs); base += BatchWidth {
		if bud.Canceled() {
			break
		}
		end := min(base+BatchWidth, len(srcs))
		any := false
		for si, src := range srcs[base:end] {
			if src < 0 || src >= n {
				continue
			}
			w := workers[0]
			if part != nil {
				w = workers[part.ShardOf(int32(src))]
			}
			w.depth = 0
			w.insert(int32(src), startID, 1<<uint(si))
			any = true
			seeded++
		}
		if !any {
			continue
		}
		for _, w := range workers {
			w.frontier, w.next = w.next, w.frontier
			w.depth = 1
		}
		batches++
		if shards == 1 {
			workers[0].runSingle()
		} else {
			k := &kernel{workers: workers, bar: newBarrier(shards), sizes: make([]int, shards), bud: bud}
			var wg sync.WaitGroup
			wg.Add(shards)
			for _, w := range workers {
				go func(w *shardWorker) {
					defer wg.Done()
					w.run(k)
				}(w)
			}
			wg.Wait()
		}
		var levs [][]int32
		if res.Levs != nil {
			levs = res.Levs[base:end]
		}
		gather(workers, res.Hits[base:end], levs)
		for _, w := range workers {
			w.clear()
		}
	}
	res.Truncated = bud.Canceled()

	kstat.batches.Add(batches)
	kstat.sources.Add(seeded)
	for _, w := range workers {
		kstat.levels.Add(w.levels)
		kstat.edges.Add(w.edges)
		kstat.exchanged.Add(w.exchanged)
		w.bud = nil // request-scoped; the pool must not pin it
	}
	if shards > 1 {
		kstat.mu.Lock()
		for len(kstat.perShard) < shards {
			kstat.perShard = append(kstat.perShard, ShardVolume{})
		}
		for i, w := range workers {
			kstat.perShard[i].Edges += w.edges
			kstat.perShard[i].Exchanged += w.exchanged
		}
		kstat.mu.Unlock()
	}
	return res
}

// gather turns the workers' hit masks into the per-source rows of one batch
// (hits, and levs when non-nil, are the batch's window of the result) and
// zeroes the hit state as it reads it. Only nodes flagged in a hit summary
// are looked at — n/64 words, not n. A first pass counts each source's hits,
// one slab is sized from the total, and a second pass fills every row in
// place: shards cover contiguous ascending ranges and local nodes are
// visited ascending, so each row comes out sorted.
func gather(workers []*shardWorker, hits [][]int, levs [][]int32) {
	var cnt, pos [BatchWidth]int
	for _, w := range workers {
		for wi, sum := range w.hitSum {
			for ; sum != 0; sum &= sum - 1 {
				for m := w.hits[wi<<6+bits.TrailingZeros64(sum)]; m != 0; m &= m - 1 {
					cnt[bits.TrailingZeros64(m)]++
				}
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
	for _, w := range workers {
		for wi, sum := range w.hitSum {
			if sum == 0 {
				continue
			}
			w.hitSum[wi] = 0
			for ; sum != 0; sum &= sum - 1 {
				li := wi<<6 + bits.TrailingZeros64(sum)
				m := w.hits[li]
				w.hits[li] = 0
				for ; m != 0; m &= m - 1 {
					si := bits.TrailingZeros64(m)
					slab[pos[si]] = int(w.lo) + li
					if levSlab != nil {
						levSlab[pos[si]] = w.hitLev[li*BatchWidth+si]
						w.hitLev[li*BatchWidth+si] = 0
					}
					pos[si]++
				}
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

package engine

// This file is the sharded multi-source product-reachability kernel: a
// level-synchronous frontier-exchange BFS over the product graph × subset
// automaton, with MS-BFS source batching.
//
// Sharding (frontier exchange): the interned node space is cut into
// contiguous degree-balanced ranges by graph.Partition, and each shard is
// owned by exactly one goroutine. All per-shard state — visited masks,
// pending frontiers, the final/transition caches — is shard-private, so the
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

var (
	kstatMu sync.Mutex
	kstat   KernelStats
)

// ReachBatchStats returns a snapshot of the batched-kernel counters.
func ReachBatchStats() KernelStats {
	kstatMu.Lock()
	defer kstatMu.Unlock()
	out := kstat
	out.Shards = Shards()
	out.PerShard = append([]ShardVolume(nil), kstat.PerShard...)
	return out
}

// ResetReachBatchStats zeroes the batched-kernel counters (tests).
func ResetReachBatchStats() {
	kstatMu.Lock()
	defer kstatMu.Unlock()
	kstat = KernelStats{}
}

// batchCfg is one live product configuration of a shard's frontier.
type batchCfg struct {
	node int32 // graph node (owned by this shard)
	id   int32 // subset-automaton set id
}

// exMsg is one cross-shard product edge: configuration (node, id) reached
// by the sources in mask, to be inserted by the owning shard at the next
// level barrier.
type exMsg struct {
	node, id int32
	mask     uint64
}

// shardWorker is the state owned by one shard's goroutine. visited/pend are
// indexed [set id][node - lo] and hold source masks; final/local cache the
// automaton's acceptance and transition rows per set id (they survive
// across batches — the automaton does not change between batches, only the
// source masks do).
type shardWorker struct {
	idx     int
	lo, hi  int32
	ix      *graph.Index
	c       *automata.SubsetCache
	part    *graph.Partition // nil when running single-shard
	forward bool
	nSyms   int32
	bud     *Budget // optional; polled once per level
	depth   int32   // current BFS level (0 while seeding)

	visited [][]uint64 // [id][node-lo] -> mask of sources that reached it
	pend    [][]uint64 // [id][node-lo] -> mask not yet expanded
	hits    []uint64   // [node-lo] -> mask of sources hitting node finally
	hitLev  []int32    // [(node-lo)*64+srcbit] -> first-hit level (nil unless requested)
	final   []int8     // [id] -> -1 unknown / 0 no / 1 yes
	local   transRows  // [id] -> per-symbol transition row (lock-free copy)

	frontier, next []batchCfg
	masks          []uint64  // per-frontier-entry pend snapshot (scratch, see expand)
	outbox         [][]exMsg // [dst shard] -> exported configurations

	edges     uint64 // product edges expanded
	exchanged uint64 // configurations exported cross-shard
	levels    uint64 // levels driven (counted by shard 0 only)
}

// state returns the visited and pending mask arrays of set id, growing the
// per-id slices on first sight of the id.
func (w *shardWorker) state(id int32) ([]uint64, []uint64) {
	for int(id) >= len(w.visited) {
		w.visited = append(w.visited, nil)
		w.pend = append(w.pend, nil)
	}
	if w.visited[id] == nil {
		sz := int(w.hi - w.lo)
		w.visited[id] = make([]uint64, sz)
		w.pend[id] = make([]uint64, sz)
	}
	return w.visited[id], w.pend[id]
}

// isFinal caches c.Final per set id so the insert path takes the
// SubsetCache read lock at most once per id per ReachBatch call.
func (w *shardWorker) isFinal(id int32) bool {
	for int(id) >= len(w.final) {
		w.final = append(w.final, -1)
	}
	if w.final[id] < 0 {
		if w.c.Final(id) {
			w.final[id] = 1
		} else {
			w.final[id] = 0
		}
	}
	return w.final[id] == 1
}

// insert merges mask into configuration (v, id), queueing it for the next
// level when it gains its first pending bits. v must be owned by w.
func (w *shardWorker) insert(v, id int32, mask uint64) {
	vb, pb := w.state(id)
	li := v - w.lo
	delta := mask &^ vb[li]
	if delta == 0 {
		return
	}
	vb[li] |= delta
	if pb[li] == 0 {
		w.next = append(w.next, batchCfg{node: v, id: id})
	}
	pb[li] |= delta
	if w.isFinal(id) {
		fresh := delta &^ w.hits[li]
		w.hits[li] |= delta
		if w.hitLev != nil {
			// Level-synchronous BFS: a source bit's first hit on a node is at
			// its minimal level, so recording once at first sight is exact.
			for m := fresh; m != 0; m &= m - 1 {
				w.hitLev[int(li)*64+bits.TrailingZeros64(m)] = w.depth
			}
		}
	}
}

// expand walks the current frontier: for every live configuration it steps
// the subset automaton over each symbol's adjacency span, inserting local
// targets directly and buffering cross-shard targets into the outbox.
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
	for qi := 0; qi < len(w.frontier); qi++ {
		cur := w.frontier[qi]
		mask := w.masks[qi]
		if mask == 0 {
			continue
		}
		row := w.local.row(cur.id, int(w.nSyms))
		for s := int32(0); s < w.nSyms; s++ {
			var tgts []int32
			if w.forward {
				tgts = w.ix.OutByID(int(cur.node), s)
			} else {
				tgts = w.ix.InByID(int(cur.node), s)
			}
			if len(tgts) == 0 {
				continue
			}
			nid := row[s]
			if nid == unknown {
				nid = w.c.Step(cur.id, int32(w.ix.Sym(s)))
				row[s] = nid
			}
			if nid == automata.Dead {
				continue
			}
			w.edges += uint64(len(tgts))
			if w.part == nil {
				for _, v := range tgts {
					w.insert(v, nid, mask)
				}
				continue
			}
			for _, v := range tgts {
				if ds := w.part.ShardOf(v); ds == w.idx {
					w.insert(v, nid, mask)
				} else {
					w.outbox[ds] = append(w.outbox[ds], exMsg{node: v, id: nid, mask: mask})
					w.exchanged++
				}
			}
		}
	}
	w.frontier = w.frontier[:0]
}

// reset clears the per-batch state (visited/pend masks, hits, frontiers)
// while keeping the batch-independent final/transition caches and all
// allocated storage.
func (w *shardWorker) reset() {
	for i := range w.visited {
		if w.visited[i] != nil {
			clear(w.visited[i])
			clear(w.pend[i])
		}
	}
	clear(w.hits)
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
type BatchResult struct {
	Hits      [][]int
	Levs      [][]int32
	Truncated bool
}

// ReachBatchEx is ReachBatch under the options of Reach, applied to the whole
// batch; see BatchResult. The MS-BFS word-packing is level-synchronous and
// cannot batch Dijkstra frontiers, so a weighted batch runs as a per-source
// Reach fan instead of the sharded kernel — correct, budget-honoring, but
// without the 64-way sharing.
func ReachBatchEx(ix *graph.Index, part *graph.Partition, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	if opts.Weight != nil {
		return reachBatchWeighted(ix, c, srcs, forward, opts)
	}
	res := BatchResult{Hits: make([][]int, len(srcs))}
	if opts.Levels {
		res.Levs = make([][]int32, len(srcs))
	}
	out := res.Hits
	bud := opts.Budget
	n := ix.NumNodes()
	if n == 0 || len(srcs) == 0 {
		return res
	}
	if part != nil && (part.NumNodes() != n || part.NumShards() == 1 || n < minShardedNodes) {
		part = nil
	}
	var workers []*shardWorker
	if part == nil {
		workers = []*shardWorker{{lo: 0, hi: int32(n)}}
	} else {
		workers = make([]*shardWorker, part.NumShards())
		for i := range workers {
			lo, hi := part.Range(i)
			workers[i] = &shardWorker{idx: i, lo: lo, hi: hi, part: part,
				outbox: make([][]exMsg, len(workers))}
		}
	}
	for _, w := range workers {
		w.ix, w.c, w.forward, w.nSyms = ix, c, forward, int32(ix.NumSyms())
		w.bud = bud
		w.hits = make([]uint64, int(w.hi-w.lo))
		if opts.Levels {
			w.hitLev = make([]int32, int(w.hi-w.lo)*64)
		}
	}
	startID := c.Start()
	var batches, seeded uint64
	for base := 0; base < len(srcs); base += BatchWidth {
		if bud.Canceled() {
			res.Truncated = true
			break
		}
		batch := srcs[base:min(base+BatchWidth, len(srcs))]
		if base > 0 {
			for _, w := range workers {
				w.reset()
			}
		}
		any := false
		for si, src := range batch {
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
		for _, w := range workers {
			w.frontier, w.next = w.next, w.frontier
			w.depth = 1
		}
		if any {
			batches++
			if len(workers) == 1 {
				workers[0].runSingle()
			} else {
				k := &kernel{workers: workers, bar: newBarrier(len(workers)),
					sizes: make([]int, len(workers)), bud: bud}
				var wg sync.WaitGroup
				wg.Add(len(workers))
				for _, w := range workers {
					go func(w *shardWorker) {
						defer wg.Done()
						w.run(k)
					}(w)
				}
				wg.Wait()
			}
		}
		// Gather: shards cover contiguous ascending ranges and local nodes
		// are scanned ascending, so each source's list comes out sorted.
		for _, w := range workers {
			for li, m := range w.hits {
				for m != 0 {
					si := bits.TrailingZeros64(m)
					m &= m - 1
					out[base+si] = append(out[base+si], int(w.lo)+li)
					if res.Levs != nil {
						res.Levs[base+si] = append(res.Levs[base+si], w.hitLev[li*64+si])
					}
				}
			}
		}
	}
	if bud.Canceled() {
		res.Truncated = true
	}

	kstatMu.Lock()
	kstat.Batches += batches
	kstat.Sources += seeded
	for _, w := range workers {
		kstat.Levels += w.levels
		kstat.Edges += w.edges
		kstat.Exchanged += w.exchanged
		for w.idx >= len(kstat.PerShard) {
			kstat.PerShard = append(kstat.PerShard, ShardVolume{})
		}
		kstat.PerShard[w.idx].Edges += w.edges
		kstat.PerShard[w.idx].Exchanged += w.exchanged
	}
	kstatMu.Unlock()
	return res
}

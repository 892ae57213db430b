package engine

import (
	"math"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// Weight is a pluggable per-edge cost for witness ranking: it maps a graph
// edge label to the nonnegative cost of traversing one edge with that label.
// A nil Weight means unit cost — every edge counts 1, and witness cost
// degenerates to the BFS level (shortest matching-path edge count) the
// unweighted kernels already compute. Negative returns are clamped to 0.
//
// A Weight must be pure (same label → same cost for the lifetime of a query):
// the kernels precompute it per symbol, and the ranked enumeration's
// nondecreasing-cost guarantee is Dijkstra's invariant, which needs
// nonnegative, stable edge costs. Weighted relations are never admitted to
// the cross-query relation caches — a function has no cache identity — so
// supplying a Weight trades cache reuse for the custom metric.
type Weight func(label rune) int32

// weightTable precomputes the clamped per-symbol costs of w over the
// index's symbol table (nil w yields nil, meaning unit cost).
func weightTable(ix *graph.Index, w Weight) []int32 {
	if w == nil {
		return nil
	}
	nSyms := ix.NumSyms()
	tbl := make([]int32, nSyms)
	for s := 0; s < nSyms; s++ {
		c := w(ix.Sym(int32(s)))
		if c < 0 {
			c = 0
		}
		tbl[s] = c
	}
	return tbl
}

// reachWeighted is the Dijkstra kernel behind Reach under a Weight: for every
// hit it records in hitLev the minimum total weight of an accepted path
// instead of the edge count. It runs over the (node, automaton-set-id)
// product configurations with a lazy-deletion binary heap keyed by
// accumulated cost, so the first settle of an accepting configuration carries
// the node's minimal weighted witness. The budget is polled every few hundred
// pops. wsym is the clamped per-symbol cost table (weightTable).
func reachWeighted(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, bud *Budget, wsym, hitLev []int32) []uint64 {
	n := ix.NumNodes()
	nSyms := ix.NumSyms()

	const inf = int32(math.MaxInt32)
	// dist[id] is the best known cost per node for DFA set id; ids are dense
	// and appear in discovery order, so the slice grows lazily (mirroring
	// reachBFS's visited structure).
	var dist [][]int32
	distFor := func(id int32) []int32 {
		for int(id) >= len(dist) {
			dist = append(dist, nil)
		}
		if dist[id] == nil {
			row := make([]int32, n)
			for i := range row {
				row[i] = inf
			}
			dist[id] = row
		}
		return dist[id]
	}
	var local transRows

	type wcfg struct {
		cost int32
		node int32
		id   int32
	}
	// lazy-deletion binary min-heap on cost
	heap := []wcfg{{0, int32(src), c.Start()}}
	push := func(x wcfg) {
		heap = append(heap, x)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].cost <= heap[i].cost {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() wcfg {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && heap[l].cost < heap[m].cost {
				m = l
			}
			if r < last && heap[r].cost < heap[m].cost {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	distFor(c.Start())[src] = 0

	hitBits := make([]uint64, (n+63)/64)
	pops := 0
	for len(heap) > 0 {
		cur := pop()
		pops++
		if pops%256 == 0 && bud.Canceled() {
			break
		}
		drow := distFor(cur.id)
		if cur.cost > drow[cur.node] {
			continue // stale heap entry: a cheaper path already settled it
		}
		if c.Final(cur.id) {
			w, b := cur.node/64, uint64(1)<<(cur.node%64)
			if hitBits[w]&b == 0 {
				hitBits[w] |= b
				hitLev[cur.node] = cur.cost // first settle ⇒ minimal cost
			}
		}
		row := local.row(cur.id, nSyms)
		for s := int32(0); s < int32(nSyms); s++ {
			var tgts []int32
			if forward {
				tgts = ix.OutByID(int(cur.node), s)
			} else {
				tgts = ix.InByID(int(cur.node), s)
			}
			if len(tgts) == 0 {
				continue
			}
			nid := row[s]
			if nid == unknown {
				nid = c.Step(cur.id, int32(ix.Sym(s)))
				row[s] = nid
			}
			if nid == automata.Dead {
				continue
			}
			nc := cur.cost + wsym[s]
			ndrow := distFor(nid)
			for _, v := range tgts {
				if nc < ndrow[v] {
					ndrow[v] = nc
					push(wcfg{nc, v, nid})
				}
			}
		}
	}
	return hitBits
}

// reachBatchWeighted answers a weighted ReachBatchEx request: the MS-BFS
// word-packed kernel is level-synchronous and cannot batch Dijkstra
// frontiers, so the sources fan out across the worker pool, one weighted
// Reach each. Truncation is detected through the shared budget, like the
// batched kernel: a canceled sweep leaves some sources' lists sound but
// incomplete (or missing entirely), so the result must not enter cross-query
// caches.
func reachBatchWeighted(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	res := BatchResult{Hits: make([][]int, len(srcs)), Levs: make([][]int32, len(srcs))}
	Fan(len(srcs), func(i int) {
		if opts.Budget.Canceled() {
			return
		}
		res.Hits[i], res.Levs[i] = Reach(ix, c, srcs[i], forward, opts)
	})
	if opts.Budget.Canceled() {
		res.Truncated = true
	}
	return res
}

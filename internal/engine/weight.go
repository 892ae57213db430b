package engine

import (
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
// the cross-query atom store — a function has no identity to file them under
// — so supplying a Weight trades reuse for the custom metric.
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

// costCfg is one Dijkstra heap entry: a configuration at a tentative cost.
type costCfg struct {
	cost int32
	cfg
}

// costHeap is a binary min-heap on cost with lazy deletion: a configuration
// is pushed again when it gets cheaper and the stale entry is skipped at pop.
type costHeap []costCfg

func (h *costHeap) push(x costCfg) {
	*h = append(*h, x)
	hp := *h
	for i := len(hp) - 1; i > 0; {
		p := (i - 1) / 2
		if hp[p].cost <= hp[i].cost {
			break
		}
		hp[p], hp[i] = hp[i], hp[p]
		i = p
	}
}

func (h *costHeap) pop() costCfg {
	hp := *h
	top := hp[0]
	last := len(hp) - 1
	hp[0] = hp[last]
	hp = hp[:last]
	*h = hp
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && hp[l].cost < hp[m].cost {
			m = l
		}
		if r < last && hp[r].cost < hp[m].cost {
			m = r
		}
		if m == i {
			break
		}
		hp[i], hp[m] = hp[m], hp[i]
		i = m
	}
	return top
}

// distOf returns the distance row of set id, sized for the current index.
func (s *scalarScratch) distOf(id int32) []int32 {
	for int(id) >= len(s.dist) {
		s.dist = append(s.dist, nil)
	}
	if len(s.dist[id]) != s.n {
		s.dist[id] = grown(s.dist[id], s.n)
	}
	return s.dist[id]
}

// relax lowers configuration (v, id) to cost if that improves on what is
// known. Distances are stored plus one so that the idle all-zero scratch
// reads as "nothing reached".
func (s *scalarScratch) relax(drow []int32, v, id, cost int32) {
	d := drow[v]
	if d != 0 && d-1 <= cost {
		return
	}
	if d == 0 {
		s.touched = append(s.touched, cfg{v, id})
	}
	drow[v] = cost + 1
	s.heap.push(costCfg{cost, cfg{v, id}})
}

// dijkstra is the kernel behind Reach under a Weight: for every hit it
// records the minimum total weight of an accepted path instead of the edge
// count. It runs over the (node, set id) product configurations, so the
// first settle of an accepting configuration carries the node's minimal
// weighted witness. The budget is polled every few hundred pops. wsym is the
// clamped per-symbol cost table (weightTable). It walks product edges like
// the BFS and drives no level.
func (s *scalarScratch) dijkstra(ix *graph.Index, src int, forward bool, bud *Budget, wsym []int32) {
	startID := s.live.c.Start()
	s.edges, s.levels = 0, 0
	s.relax(s.distOf(startID), int32(src), startID, 0)
	for pops := 1; len(s.heap) > 0; pops++ {
		cur := s.heap.pop()
		if pops%256 == 0 && bud.Canceled() {
			break
		}
		if cur.cost > s.distOf(cur.id)[cur.node]-1 {
			continue // stale heap entry: a cheaper path already settled it
		}
		st := s.live.state(cur.id)
		if st.final {
			s.hit(cur.node, cur.cost, true) // first settle ⇒ minimal cost
		}
		for _, e := range st.edges {
			tgts := adjacent(ix, cur.node, e.sym, forward)
			if len(tgts) == 0 {
				continue
			}
			s.edges += uint64(len(tgts))
			nc := cur.cost + wsym[e.sym]
			drow := s.distOf(e.next)
			for _, v := range tgts {
				s.relax(drow, v, e.next, nc)
			}
		}
	}
	for _, t := range s.touched {
		s.dist[t.id][t.node] = 0
	}
	s.touched = s.touched[:0]
	s.heap = s.heap[:0]
}

// reachBatchWeighted answers a weighted ReachBatchEx request: the MS-BFS
// word-packed kernel is level-synchronous and cannot batch Dijkstra
// frontiers, so the sources fan out GOMAXPROCS wide (a kernel sees no
// fan width), one weighted Reach each. Truncation is detected through the shared budget, like the
// batched kernel: a canceled sweep leaves some sources' lists sound but
// incomplete (or missing entirely), so the result must not enter cross-query
// caches.
func reachBatchWeighted(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, opts ReachOpts) BatchResult {
	res := BatchResult{Hits: make([][]int, len(srcs)), Levs: make([][]int32, len(srcs))}
	Fan(0, len(srcs), func(i int) {
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

// Package engine is the product-reachability core shared by every
// evaluation path in the library: CRPQs (Lemma 1), the ECRPQ^er
// synchronized-product engine, and the CXRPQ fragment algorithms all bottom
// out in reachability over the product of a graph database with an
// automaton. The engine runs that search over integer-interned machinery —
// a label-indexed CSR graph view (graph.Index), an on-the-fly subset
// construction with dense set ids (automata.SubsetCache), and per-set-id
// node bitsets for the visited structure — and fans independent searches
// out across a bounded worker pool.
package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// unknown marks a transition not yet copied from the shared SubsetCache
// into a Reach call's lock-free local table.
const unknown int32 = -2

// ReachOpts parameterizes a reachability search. The zero value is the plain
// unbudgeted hit-set BFS.
type ReachOpts struct {
	// Budget is polled once per BFS level (every few hundred settles under a
	// Weight); nil means unlimited. A canceled search returns the sound prefix
	// found so far: every entry is a genuine hit with its true minimal cost,
	// costlier hits may be missing.
	Budget *Budget
	// Levels reports, parallel to the hits, the cost of a cheapest accepted
	// path to each: the number of graph edges (the BFS level the kernel
	// already runs in — no second search), or the total weight under Weight.
	Levels bool
	// Weight replaces the unit edge cost (see Weight); non-nil implies Levels
	// and runs Dijkstra over the product instead of the BFS.
	Weight Weight
}

// Reach returns the sorted graph nodes v reachable from src through a path
// whose label is accepted by the automaton behind c: paths follow out-edges
// when forward is true and in-edges otherwise (the caller supplies the
// reversed automaton for backward searches). The result is materialized by
// scanning the hit bitset, so it comes out sorted for free. levs is nil
// unless o asks for costs. An out-of-range src yields (nil, nil).
func Reach(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, o ReachOpts) (hits []int, levs []int32) {
	n := ix.NumNodes()
	if src < 0 || src >= n {
		return nil, nil
	}
	var hitLev []int32
	if o.Levels || o.Weight != nil {
		hitLev = make([]int32, n)
	}
	var hitBits []uint64
	if o.Weight != nil {
		hitBits = reachWeighted(ix, c, src, forward, o.Budget, weightTable(ix, o.Weight), hitLev)
	} else {
		hitBits = reachBFS(ix, c, src, forward, o.Budget, hitLev)
	}
	for wi, bs := range hitBits {
		for bs != 0 {
			v := wi*64 + bits.TrailingZeros64(bs)
			bs &= bs - 1
			hits = append(hits, v)
			if hitLev != nil {
				levs = append(levs, hitLev[v])
			}
		}
	}
	return hits, levs
}

// transRows copies the shared (lock-guarded) subset-automaton transition
// table into dense per-set-id rows, one slot per graph symbol, so a kernel's
// inner loop stays lock-free after the first use of each transition.
type transRows [][]int32

func (t *transRows) row(id int32, nSyms int) []int32 {
	for int(id) >= len(*t) {
		*t = append(*t, nil)
	}
	if (*t)[id] == nil {
		r := make([]int32, nSyms)
		for s := range r {
			r[s] = unknown
		}
		(*t)[id] = r
	}
	return (*t)[id]
}

// reachBFS is the scalar unit-cost product BFS behind Reach. When hitLev is
// non-nil it receives the first-hit level per node (indexed by node id;
// positions whose hit bit is never set are untouched).
func reachBFS(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, bud *Budget, hitLev []int32) []uint64 {
	n := ix.NumNodes()
	nSyms := ix.NumSyms()
	words := (n + 63) / 64

	// visited[id] is a bitset over nodes for DFA set id; ids are dense and
	// appear in discovery order, so the slice grows lazily.
	var visited [][]uint64
	ensure := func(id int32) []uint64 {
		for int(id) >= len(visited) {
			visited = append(visited, nil)
		}
		if visited[id] == nil {
			visited[id] = make([]uint64, words)
		}
		return visited[id]
	}
	var local transRows

	type cfg struct {
		node int32
		id   int32
	}
	startID := c.Start()
	queue := []cfg{{int32(src), startID}}
	ensure(startID)[src/64] |= 1 << (src % 64)

	hitBits := make([]uint64, words)
	depth := int32(0)
	levelEnd := 1 // queue prefix holding the current BFS level
	for qi := 0; qi < len(queue); qi++ {
		if qi == levelEnd {
			depth++
			levelEnd = len(queue)
			if bud.Canceled() {
				break
			}
		}
		cur := queue[qi]
		if c.Final(cur.id) {
			w, b := cur.node/64, uint64(1)<<(cur.node%64)
			if hitBits[w]&b == 0 {
				hitBits[w] |= b
				if hitLev != nil {
					hitLev[cur.node] = depth
				}
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
			vb := ensure(nid)
			for _, v := range tgts {
				if vb[v/64]&(1<<(uint(v)%64)) == 0 {
					vb[v/64] |= 1 << (uint(v) % 64)
					queue = append(queue, cfg{v, nid})
				}
			}
		}
	}
	return hitBits
}

// maxWorkers bounds the engine's fan-out; 0 means GOMAXPROCS.
var maxWorkers atomic.Int64

// SetMaxWorkers bounds the worker pool used by Fan (0 restores the
// default of GOMAXPROCS). It returns the previous bound.
func SetMaxWorkers(n int) int {
	return int(maxWorkers.Swap(int64(n)))
}

// Workers returns the effective worker-pool size for n independent tasks.
func Workers(n int) int {
	w := int(maxWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Fan runs f(0..n-1) across the bounded worker pool and waits for all calls
// to finish. f must be safe for concurrent invocation on distinct indices;
// with a single worker (or n == 1) the calls run inline in order. Workers
// claim chunked runs of ~n/(8w) indices per fetch-and-add rather than one
// index each, so tiny per-task bodies stop serializing on the shared
// counter while the 8× oversubscription keeps load balance for skewed task
// costs.
func Fan(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	chunk := n / (8 * w)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(i)
				}
			}
		}()
	}
	wg.Wait()
}

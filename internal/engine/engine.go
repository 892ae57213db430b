// Package engine is the product-reachability core shared by every
// evaluation path in the library: CRPQs (Lemma 1), the ECRPQ^er
// synchronized-product engine, and the CXRPQ fragment algorithms all bottom
// out in reachability over the product of a graph database with an
// automaton. The engine runs that search over integer-interned machinery —
// a label-indexed CSR graph view (graph.Index), an on-the-fly subset
// construction with dense set ids (automata.SubsetCache), and per-set-id
// node bitsets for the visited structure, all of it on reusable scratch that
// is cleared from what a search touched. Every search runs on the goroutine
// that calls it.
package engine

import (
	"math/bits"
	"slices"
	"sync"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

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
	// First ends the search at its first accepted configuration: the hits
	// are empty or one nearest node, which settles whether the source has
	// any. Ignored under Weight.
	First bool
	// Count is where the search reports its work; nil counts nothing.
	Count *Counters
}

// Reach returns the sorted graph nodes v reachable from src through a path
// whose label is accepted by the automaton behind c: paths follow out-edges
// when forward is true and in-edges otherwise (the caller supplies the
// reversed automaton for backward searches). levs is nil unless o asks for
// costs. A source without hits, and an out-of-range src, yield (nil, nil).
//
// The search runs on pooled scratch (scalarScratch): in steady state a call
// allocates its two result slices and nothing else.
func Reach(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, o ReachOpts) (hits []int, levs []int32) {
	if src < 0 || src >= ix.NumNodes() {
		return nil, nil
	}
	s := scalarPool.Get().(*scalarScratch)
	hits, levs = s.reach(ix, c, src, forward, o)
	scalarPool.Put(s)
	return hits, levs
}

// Support returns the bitset (and count) of the nodes at which an accepted
// path ends, whatever node it starts at: the BFS of Reach seeded with every
// node at once, O(|E|·|Q|) however many pairs there are, and in count one
// batch of n sources. With first it stops at its first hit, which settles
// emptiness. cut reports a budget-truncated sweep: bits may be missing.
func Support(ix *graph.Index, c *automata.SubsetCache, forward, first bool, bud *Budget, count *Counters) (sup []uint64, n int, cut bool) {
	s := scalarPool.Get().(*scalarScratch)
	sup, n, cut = s.support(ix, c, forward, first, bud, count)
	scalarPool.Put(s) // not deferred: a sweep that panics must not pool dirty scratch
	return sup, n, cut
}

// cfg is one product configuration: a graph node paired with a
// subset-automaton set id.
type cfg struct {
	node int32
	id   int32
}

// scalarScratch is the reusable state of the two single-source kernels.
// Every array is all-zero whenever the scratch is not inside reach: a search
// records what it touched (the BFS queue, the Dijkstra touched list, the hit
// bitset) and clears exactly that on its way out, so a probe that reaches
// ten configurations pays for ten, not for n/64 words per automaton state —
// also when a budget cut it short. Slices only ever grow; a smaller index
// reuses a prefix.
type scalarScratch struct {
	live liveRows
	n    int // nodes of the index the current search runs on

	visited [][]uint64 // BFS: [set id] -> node bitset
	queue   []cfg      // BFS: every visited configuration, in discovery order

	dist    [][]int32 // Dijkstra: [set id][node] -> best known cost + 1; 0 = unreached
	touched []cfg     // Dijkstra: every configuration with a dist entry
	heap    costHeap

	edges, levels uint64 // product edges walked and BFS levels run by the last search

	hitBits []uint64 // node bitset of the hits
	hitLev  []int32  // [node] -> cost of the hit (sized only when costs are wanted)
	nHits   int
}

// scalarPool hands scratch from one Reach call to the next; what it holds
// is dropped by the collector like any sync.Pool content.
var scalarPool = sync.Pool{New: func() any { return new(scalarScratch) }}

// grown returns s resized to n elements, all zero given that s is: the
// all-zero-when-idle invariant makes a prefix of an old array as good as a
// new one. A new array has an eighth more room, and 64 elements, so that a
// graph growing by a few nodes per revision reuses it.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8+64)
	}
	return s[:n]
}

// reach runs one search on the scratch and leaves it all-zero again.
func (s *scalarScratch) reach(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, o ReachOpts) ([]int, []int32) {
	s.n = ix.NumNodes()
	s.live.bind(c, ix)
	s.hitBits = grown(s.hitBits, (s.n+63)/64)
	wantLev := o.Levels || o.Weight != nil
	if wantLev {
		s.hitLev = grown(s.hitLev, s.n)
	}
	if o.Weight != nil {
		s.dijkstra(ix, src, forward, o.Budget, weightTable(ix, o.Weight))
	} else {
		s.bfs(ix, src, forward, o.Budget, wantLev, o.First)
	}
	o.Count.add(1, s.levels, 1, s.edges)
	return s.gather(wantLev)
}

// support runs one set-source sweep on the scratch and leaves it all-zero.
func (s *scalarScratch) support(ix *graph.Index, c *automata.SubsetCache, forward, first bool, bud *Budget, count *Counters) (sup []uint64, n int, cut bool) {
	s.n = ix.NumNodes()
	s.live.bind(c, ix)
	s.hitBits = grown(s.hitBits, (s.n+63)/64)
	cut = s.bfs(ix, -1, forward, bud, false, first)
	sup, n = slices.Clone(s.hitBits), s.nHits
	clear(s.hitBits)
	s.nHits = 0
	count.add(1, s.levels, uint64(s.n), s.edges)
	return sup, n, cut
}

// hit records the first acceptance of node at the given cost.
func (s *scalarScratch) hit(node, cost int32, wantLev bool) {
	w, b := node>>6, uint64(1)<<(uint(node)&63)
	if s.hitBits[w]&b != 0 {
		return
	}
	s.hitBits[w] |= b
	s.nHits++
	if wantLev {
		s.hitLev[node] = cost
	}
}

// gather turns the hit bitset into the sorted result, sized exactly from the
// hit count, and zeroes the hit state as it reads it.
func (s *scalarScratch) gather(wantLev bool) (hits []int, levs []int32) {
	if s.nHits == 0 {
		return nil, nil
	}
	hits = make([]int, 0, s.nHits)
	if wantLev {
		levs = make([]int32, 0, s.nHits)
	}
	for wi, bs := range s.hitBits {
		if bs == 0 {
			continue
		}
		s.hitBits[wi] = 0
		for ; bs != 0; bs &= bs - 1 {
			v := wi<<6 + bits.TrailingZeros64(bs)
			hits = append(hits, v)
			if wantLev {
				levs = append(levs, s.hitLev[v])
				s.hitLev[v] = 0
			}
		}
	}
	s.nHits = 0
	return hits, levs
}

// visitedOf returns the node bitset of set id, sized for the current index.
func (s *scalarScratch) visitedOf(id int32) []uint64 {
	for int(id) >= len(s.visited) {
		s.visited = append(s.visited, nil)
	}
	words := (s.n + 63) / 64
	if len(s.visited[id]) != words {
		s.visited[id] = grown(s.visited[id], words)
	}
	return s.visited[id]
}

// bfs is the scalar unit-cost product BFS behind Reach and Support: a FIFO
// over (node, set id) configurations whose level is the cost of a hit, from
// src or, when src is negative, from every node; first ends it at the first
// hit. It reports whether the budget cut it short.
func (s *scalarScratch) bfs(ix *graph.Index, src int, forward bool, bud *Budget, wantLev, first bool) (cut bool) {
	startID := s.live.c.Start()
	s.edges, s.levels = 0, 1
	lo, hi := src, src+1
	if src < 0 {
		lo, hi = 0, s.n
	}
	s.queue = s.queue[:0]
	for v, vb := lo, s.visitedOf(startID); v < hi; v++ {
		s.queue = append(s.queue, cfg{int32(v), startID})
		vb[v>>6] |= 1 << (uint(v) & 63)
	}

	depth := int32(0)
	levelEnd := len(s.queue) // queue prefix holding the current BFS level
	for qi := 0; qi < len(s.queue); qi++ {
		if qi == levelEnd {
			depth++
			levelEnd = len(s.queue)
			if cut = bud.Canceled(); cut {
				break
			}
			s.levels++
		}
		cur := s.queue[qi]
		st := s.live.state(cur.id)
		if st.final {
			if s.hit(cur.node, depth, wantLev); first {
				break
			}
		}
		for _, e := range st.edges {
			tgts := adjacent(ix, cur.node, e.sym, forward)
			if len(tgts) == 0 {
				continue
			}
			s.edges += uint64(len(tgts))
			vb := s.visitedOf(e.next)
			for _, v := range tgts {
				if vb[v>>6]&(1<<(uint(v)&63)) == 0 {
					vb[v>>6] |= 1 << (uint(v) & 63)
					s.queue = append(s.queue, cfg{v, e.next})
				}
			}
		}
	}
	// The queue holds every configuration whose visited bit was set, expanded
	// or not, so clearing their words restores the all-zero state.
	for _, q := range s.queue {
		s.visited[q.id][q.node>>6] = 0
	}
	s.queue = s.queue[:0]
	return cut
}

// adjacent returns the neighbours of node over symbol id sym in the search
// direction.
func adjacent(ix *graph.Index, node, sym int32, forward bool) []int32 {
	if forward {
		return ix.OutByID(int(node), sym)
	}
	return ix.InByID(int(node), sym)
}

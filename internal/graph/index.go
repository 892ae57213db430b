package graph

import (
	"sort"
	"sync"
)

// Index is an immutable label-indexed adjacency view of a DB in CSR
// (compressed sparse row) form: for every (node, label) pair the outgoing
// and incoming neighbour lists are contiguous int32 slices, and labels are
// interned as dense symbol ids. It is built once per DB revision (see
// DB.Index) and replaces the per-BFS-step label grouping that the product
// engines previously recomputed at every visited node.
//
// After an insert-only mutation delta the view is extended instead of
// rebuilt (extendIndex): the new Index shares the base CSR arrays of its
// predecessor and carries the touched (node, symbol) spans — plus all spans
// of nodes interned after the base was built — in a small overlay map.
// Lookups check the overlay first (one nil test on the hot path when the
// index is a fresh build); when the overlay grows past a fraction of the
// base, DB.Index compacts by rebuilding. Removals and new labels always
// rebuild, so symbol ids stay the dense ids of the sorted alphabet.
//
// All methods are safe for concurrent use; the returned slices are views
// into shared storage and must not be modified.
type Index struct {
	n     int
	syms  []rune
	symID map[rune]int32
	out   labelCSR
	in    labelCSR

	// Overlay of a delta-extended index. baseN/baseSyms delimit the CSR
	// arrays (built for an older revision); ovOut/ovIn hold the merged
	// spans of every (node, symbol) pair touched since. nil maps mean a
	// fresh build.
	baseN   int
	ovOut   map[int64][]int32
	ovIn    map[int64][]int32
	ovEdges int // overlay-carried edges, the compaction trigger

	outSymsOnce sync.Once
	outSyms     []uint64 // [node] × SymWords: symbols with an outgoing edge
}

// labelCSR stores, for each (node, symbol id) pair, a span into a flat
// target array: targets of (u, s) are tgt[off[u*S+s]:off[u*S+s+1]].
type labelCSR struct {
	off []int32
	tgt []int32
}

func (c *labelCSR) span(u int, s int32, nSyms int) []int32 {
	i := u*nSyms + int(s)
	return c.tgt[c.off[i]:c.off[i+1]]
}

func buildIndex(d *DB) *Index {
	n := d.NumNodes()
	syms := d.Alphabet()
	symID := make(map[rune]int32, len(syms))
	for i, r := range syms {
		symID[r] = int32(i)
	}
	ix := &Index{n: n, baseN: n, syms: syms, symID: symID}
	ix.out = buildCSR(n, len(syms), symID, d.out, func(e Edge) int { return e.To })
	ix.in = buildCSR(n, len(syms), symID, d.in, func(e Edge) int { return e.From })
	return ix
}

func buildCSR(n, nSyms int, symID map[rune]int32, adj [][]Edge, endpoint func(Edge) int) labelCSR {
	off := make([]int32, n*nSyms+1)
	for u := 0; u < n; u++ {
		for _, e := range adj[u] {
			off[u*nSyms+int(symID[e.Label])+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	tgt := make([]int32, off[len(off)-1])
	fill := make([]int32, n*nSyms)
	for u := 0; u < n; u++ {
		for _, e := range adj[u] {
			i := u*nSyms + int(symID[e.Label])
			tgt[off[i]+fill[i]] = int32(endpoint(e))
			fill[i]++
		}
	}
	return labelCSR{off: off, tgt: tgt}
}

// ovKey packs a (node, symbol id) pair into one overlay map key.
func ovKey(u int, s int32) int64 { return int64(u)<<32 | int64(uint32(s)) }

// extendIndexFrac caps the overlay at 1/extendIndexFrac of the edge count
// before compaction (a full rebuild) kicks in.
const extendIndexFrac = 4

// extendIndex derives the index of the current revision from prev by
// applying an insert-only delta: the CSR arrays are shared, and only the
// (node, symbol) spans the delta touches get fresh merged slices in the
// overlay. It returns nil — asking the caller to rebuild — when the delta
// carries a label unknown to prev (dense ids would shift) or when the
// accumulated overlay would exceed its fraction of the edge set.
func extendIndex(d *DB, prev *Index, info *DeltaInfo) *Index {
	for _, r := range info.Labels {
		if _, ok := prev.symID[r]; !ok {
			return nil
		}
	}
	ovEdges := prev.ovEdges + len(info.Added)
	if ovEdges*extendIndexFrac > d.nEdges+extendIndexFrac {
		return nil
	}
	ix := &Index{
		n:     d.NumNodes(),
		baseN: prev.baseN,
		syms:  prev.syms,
		symID: prev.symID,
		out:   prev.out,
		in:    prev.in,
		ovOut: cloneOverlay(prev.ovOut, len(info.Added)),
		ovIn:  cloneOverlay(prev.ovIn, len(info.Added)),

		ovEdges: ovEdges,
	}
	for _, e := range info.Added {
		s := ix.symID[e.Label]
		ix.ovOut[ovKey(e.From, s)] = ix.appendSpan(ix.ovOut, &ix.out, e.From, s, int32(e.To))
		ix.ovIn[ovKey(e.To, s)] = ix.appendSpan(ix.ovIn, &ix.in, e.To, s, int32(e.From))
	}
	return ix
}

func cloneOverlay(m map[int64][]int32, extra int) map[int64][]int32 {
	out := make(map[int64][]int32, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// appendSpan returns the overlay span of (u, s) with v appended, starting
// from the existing overlay entry or from a fresh copy of the base span.
// Appending to a predecessor's overlay slice is safe: every older index
// sees a strictly shorter length over the same backing array.
func (ix *Index) appendSpan(ov map[int64][]int32, base *labelCSR, u int, s int32, v int32) []int32 {
	if sp, ok := ov[ovKey(u, s)]; ok {
		return append(sp, v)
	}
	var bs []int32
	if u < ix.baseN {
		bs = base.span(u, s, len(ix.syms))
	}
	sp := make([]int32, len(bs), len(bs)+4)
	copy(sp, bs)
	return append(sp, v)
}

// NumNodes returns the number of nodes covered by the index.
func (ix *Index) NumNodes() int { return ix.n }

// NumSyms returns the number of distinct edge labels.
func (ix *Index) NumSyms() int { return len(ix.syms) }

// Sym returns the rune for symbol id s.
func (ix *Index) Sym(s int32) rune { return ix.syms[s] }

// SymID returns the dense id of label r, or false if r labels no edge.
func (ix *Index) SymID(r rune) (int32, bool) {
	s, ok := ix.symID[r]
	return s, ok
}

// OutByID returns the targets of u's outgoing edges labelled with symbol id s.
func (ix *Index) OutByID(u int, s int32) []int32 {
	if ix.ovOut != nil {
		if sp, ok := ix.ovOut[ovKey(u, s)]; ok {
			return sp
		}
	}
	if u < ix.baseN {
		return ix.out.span(u, s, len(ix.syms))
	}
	return nil
}

// InByID returns the sources of u's incoming edges labelled with symbol id s.
func (ix *Index) InByID(u int, s int32) []int32 {
	if ix.ovIn != nil {
		if sp, ok := ix.ovIn[ovKey(u, s)]; ok {
			return sp
		}
	}
	if u < ix.baseN {
		return ix.in.span(u, s, len(ix.syms))
	}
	return nil
}

// OutByLabel returns the targets of u's outgoing edges labelled r.
func (ix *Index) OutByLabel(u int, r rune) []int32 {
	if s, ok := ix.symID[r]; ok {
		return ix.OutByID(u, s)
	}
	return nil
}

// InByLabel returns the sources of u's incoming edges labelled r.
func (ix *Index) InByLabel(u int, r rune) []int32 {
	if s, ok := ix.symID[r]; ok {
		return ix.InByID(u, s)
	}
	return nil
}

// SymWords returns the number of 64-bit words of a symbol-id bitset.
func (ix *Index) SymWords() int { return (len(ix.syms) + 63) / 64 }

// OutSyms returns the bitset, over symbol ids in SymWords words, of the
// labels that at least one outgoing edge of u carries. The table is built
// on first use, once per index: a synchronized product that must take its
// first step on one symbol from several nodes at once intersects these
// masks instead of probing every node tuple (see ecrpq's group sources).
func (ix *Index) OutSyms(u int) []uint64 {
	ix.outSymsOnce.Do(func() {
		w := ix.SymWords()
		ix.outSyms = make([]uint64, ix.n*w)
		for v := 0; v < ix.n; v++ {
			for s := int32(0); s < int32(len(ix.syms)); s++ {
				if len(ix.OutByID(v, s)) > 0 {
					ix.outSyms[v*w+int(s)/64] |= 1 << (uint(s) % 64)
				}
			}
		}
	})
	w := ix.SymWords()
	return ix.outSyms[u*w : (u+1)*w]
}

// OutDegree returns the number of outgoing edges of u with symbol id s.
func (ix *Index) OutDegree(u int, s int32) int { return len(ix.OutByID(u, s)) }

// SortSpans sorts every neighbour span in place (deterministic iteration
// order for tests; the engines do not rely on it). Overlay spans are copied
// before sorting: their backing arrays may be shared with the predecessor
// index the overlay was extended from.
func (ix *Index) SortSpans() {
	for u := 0; u < ix.baseN; u++ {
		for s := int32(0); s < int32(len(ix.syms)); s++ {
			span := ix.out.span(u, s, len(ix.syms))
			sort.Slice(span, func(i, j int) bool { return span[i] < span[j] })
			span = ix.in.span(u, s, len(ix.syms))
			sort.Slice(span, func(i, j int) bool { return span[i] < span[j] })
		}
	}
	for _, ov := range []map[int64][]int32{ix.ovOut, ix.ovIn} {
		for k, sp := range ov {
			cp := append([]int32(nil), sp...)
			sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
			ov[k] = cp
		}
	}
}

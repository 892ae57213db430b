package graph

import "math/bits"

// Test-only reads of the graph: the engines read labels by symbol id, paths
// through the reachability kernel, and revisions off the DB.

// Names returns the node names in id order.
func (d *DB) Names() []string { return append([]string(nil), d.names...) }

// HasPath reports whether D contains a path from u to v labelled word
// (length-0 ε-paths from every node to itself included). The frontier is a
// node bitset advanced over the label-indexed CSR spans, the same machinery
// as PathLabels/HasPathOfLen.
func (d *DB) HasPath(u int, word string, v int) bool {
	n := d.NumNodes()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	ix := d.Index()
	words := (n + 63) / 64
	cur := make([]uint64, words)
	cur[u/64] |= 1 << (uint(u) % 64)
	next := make([]uint64, words)
	for _, r := range word {
		s, ok := ix.SymID(r)
		if !ok {
			return false
		}
		clear(next)
		any := false
		for wi, bs := range cur {
			for bs != 0 {
				p := wi*64 + bits.TrailingZeros64(bs)
				bs &= bs - 1
				for _, q := range ix.OutByID(p, s) {
					next[q/64] |= 1 << (uint(q) % 64)
					any = true
				}
			}
		}
		if !any {
			return false
		}
		cur, next = next, cur
	}
	return cur[v/64]&(1<<(uint(v)%64)) != 0
}

// SymID returns the dense id of label r, or false if r labels no edge.
func (ix *Index) SymID(r rune) (int32, bool) {
	s, ok := ix.symID[r]
	return s, ok
}

// InByLabel returns the sources of u's incoming edges labelled r.
func (ix *Index) InByLabel(u int, r rune) []int32 {
	if s, ok := ix.symID[r]; ok {
		return ix.InByID(u, s)
	}
	return nil
}

// Revision returns the revision the snapshot pins.
func (s *Snapshot) Revision() uint64 { return s.rev }

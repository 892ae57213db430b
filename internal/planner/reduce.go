package planner

import "math/bits"

// EdgeRef names the endpoints of one atom for the semijoin pass.
type EdgeRef struct {
	From, To string
}

// Domains holds per-variable candidate node sets as bitsets: a value
// outside a variable's domain provably participates in no satisfying
// assignment, so backtracking joins skip it. A nil *Domains imposes no
// restriction (Has answers true for everything); consumers filter their
// own enumeration through Has or Bits rather than enumerating domains.
type Domains struct {
	n int
	m map[string][]uint64
}

// Has reports whether node v is still a candidate for variable x
// (variables without a recorded domain are unrestricted).
func (d *Domains) Has(x string, v int) bool {
	if d == nil {
		return true
	}
	bs, ok := d.m[x]
	if !ok {
		return true
	}
	if v < 0 || v >= d.n {
		return false
	}
	return bs[v/64]&(1<<(uint(v)%64)) != 0
}

// Bits returns x's candidate set as a node bitset (bit v set ⇔ node v is
// still a candidate), or nil when x is unrestricted — the form a join loop
// resolves once per plan instead of calling Has per row. The caller must not
// modify it.
func (d *Domains) Bits(x string) []uint64 {
	if d == nil {
		return nil
	}
	return d.m[x]
}

// Size returns the number of candidates for x, or -1 if x is unrestricted.
func (d *Domains) Size(x string) int {
	if d == nil {
		return -1
	}
	bs, ok := d.m[x]
	if !ok {
		return -1
	}
	c := 0
	for _, w := range bs {
		c += bits.OnesCount64(w)
	}
	return c
}

// reduceSweeps caps the arc-consistency iterations: domains only shrink,
// so stopping early is sound (just less filtering).
const reduceSweeps = 3

// Reduce runs the semijoin reduction: starting from the full node set (or
// the pre-bound singleton for variables in pre), each sweep keeps only the
// sources of edge i with a surviving target (and vice versa), propagating
// the endpoint sets of the materialized relations through shared
// variables. It returns the domains and whether every variable kept at
// least one candidate; ok == false proves the join result empty. A nil
// relation slot (or one the caller passes as nil) leaves its edge out of
// the reduction.
func Reduce(edges []EdgeRef, rels []Rel, n int, pre map[string]int) (*Domains, bool) {
	if n <= 0 || len(edges) == 0 {
		return nil, true
	}
	words := (n + 63) / 64
	d := &Domains{n: n, m: map[string][]uint64{}}
	full := func() []uint64 {
		bs := make([]uint64, words)
		for v := 0; v < n; v++ {
			bs[v/64] |= 1 << (uint(v) % 64)
		}
		return bs
	}
	domOf := func(x string) []uint64 {
		if bs, ok := d.m[x]; ok {
			return bs
		}
		var bs []uint64
		if v, ok := pre[x]; ok {
			bs = make([]uint64, words)
			if v >= 0 && v < n {
				bs[v/64] |= 1 << (uint(v) % 64)
			}
		} else {
			bs = full()
		}
		d.m[x] = bs
		return bs
	}
	for sweep := 0; sweep < reduceSweeps; sweep++ {
		changed := false
		for ei, e := range edges {
			if ei >= len(rels) || rels[ei] == nil {
				continue
			}
			r := rels[ei]
			from := domOf(e.From)
			if e.From == e.To {
				// self-loop edge: the constraint is (u, u) ∈ r
				for wi := range from {
					w := from[wi]
					for w != 0 {
						u := wi*64 + bits.TrailingZeros64(w)
						w &= w - 1
						if !relHas(r, u, u) {
							from[wi] &^= 1 << (uint(u) % 64)
							changed = true
						}
					}
				}
				continue
			}
			to := domOf(e.To)
			newTo := make([]uint64, words)
			for wi := range from {
				w := from[wi]
				for w != 0 {
					u := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					supported := false
					for _, v := range r.Forward(u) {
						if to[v/64]&(1<<(uint(v)%64)) != 0 {
							newTo[v/64] |= 1 << (uint(v) % 64)
							supported = true
						}
					}
					if !supported {
						from[wi] &^= 1 << (uint(u) % 64)
						changed = true
					}
				}
			}
			for wi := range to {
				if to[wi] != newTo[wi] {
					changed = true
				}
				to[wi] = newTo[wi]
			}
		}
		if !changed {
			break
		}
	}
	for _, bs := range d.m {
		empty := true
		for _, w := range bs {
			if w != 0 {
				empty = false
				break
			}
		}
		if empty {
			return d, false
		}
	}
	return d, true
}

// relHas probes (u, v) membership through the forward list (sorted, per
// ecrpq.EdgeRel's contract; a linear scan keeps the interface minimal and
// the lists are short per source).
func relHas(r Rel, u, v int) bool {
	for _, w := range r.Forward(u) {
		if w == v {
			return true
		}
		if w > v {
			return false
		}
	}
	return false
}

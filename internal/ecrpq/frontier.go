package ecrpq

import (
	"math/bits"
	"slices"
)

// Frontier-at-a-time probing. The backtracking join asks a lazily probed
// atom for one bound node at a time, and each miss is one single-source
// search. A materializing run is going to ask for every node the join can
// bind, so it can know them first: walking the plan's steps in order, this
// pass keeps per slot the sorted set of nodes the join can bind it to and
// hands each atom its whole set through probeAtom.prefetch — ⌈|set|/64⌉
// multi-source batches instead of one search per node — or, where the join
// answers the step from a support, narrows the set by that bitset. It only
// fills memos: the join that follows is the same search and finds them.
//
// The candidate set of a slot is exact while the conjunct is a tree and a
// superset where a later atom closes a cycle (a slot's values are then
// narrowed per atom, not per assignment); a superset costs batched probes
// the join will not read, never an answer.

// probeFrontiers runs the pass over p. It stops at the first step it cannot
// model — a relation group, an atom that is not a lazily probed one — or
// that nothing modelable follows, at an empty candidate set (the join ends
// there too), and when the budget cancels.
func (ev *evaluator) probeFrontiers(p *plan) {
	n := ev.ix.NumNodes()
	cand := make([][]int, len(p.vars)) // slot -> sorted candidates; nil = unbound
	for s, v := range p.init {
		if v >= 0 {
			cand[s] = []int{int(v)}
		}
	}
	probeOf := func(i int) *probeAtom {
		if i >= len(p.steps) {
			return nil
		}
		pa, _ := p.steps[i].src.(*probeAtom) // a group step has a nil src
		return pa
	}
	want := make([]uint64, (n+63)/64) // the far slot's candidates, when it has any
	got := make([]uint64, (n+63)/64)  // the far slot's values this step can bind
	for i := range p.steps {
		pa := probeOf(i)
		if pa == nil {
			return
		}
		// The direction the join will probe in: from the bound endpoint, forward
		// when both are bound (has) or neither is (scan) — or that of the support
		// the join answers the step from. Probe atoms have no candidate domains.
		st := &p.steps[i]
		sup, forward := st.support(cand[st.from] != nil, cand[st.to] != nil)
		if sup == nil {
			forward = cand[st.from] != nil || cand[st.to] == nil
		}
		near, far, bindNear, bindFar := st.from, st.to, st.bindFrom, st.bindTo
		if !forward {
			near, far, bindNear, bindFar = far, near, bindFar, bindNear
		}
		srcs := cand[near]
		scan := srcs == nil
		walk := scan && (sup != nil || pa.adopt(forward)) // a sup is this memo's (support)
		if scan && !walk {
			srcs = make([]int, n) // every node, until the store holds the table
			for u := range srcs {
				srcs[u] = u
			}
		}
		if sup == nil {
			pa.prefetch(srcs, forward)
		}
		if ev.bud.Canceled() || probeOf(i+1) == nil {
			return
		}
		if walk {
			srcs = bitList(pa.memo(forward).sup) // the nodes with a row, not every node
		}

		// Narrow the near slot to the nodes with a partner, and collect the
		// partners when the join binds (or has bound) the far slot.
		farKnown := cand[far] != nil
		clear(want)
		clear(got)
		for _, w := range cand[far] {
			bitSet(want, w)
		}
		memo := pa.memo(forward)
		kept := make([]int, 0, len(srcs))
		for _, u := range srcs {
			var row probeRow // stays empty under a support: the bitset decides
			if sup == nil {
				row, _ = memo.get(u)
			}
			matched := sup != nil && bitHas(sup, u)
			for _, w := range row.nodes {
				if (near == far && w != u) || (farKnown && !bitHas(want, w)) {
					continue
				}
				matched = true
				bitSet(got, w)
			}
			if matched {
				kept = append(kept, u)
			}
		}
		if len(kept) == 0 {
			return
		}
		if !scan || bindNear {
			cand[near] = kept
		}
		if near != far && (farKnown || bindFar) {
			cand[far] = bitList(got)
		}
	}
}

// bitNodes yields the set bits of b in ascending order.
func bitNodes(b []uint64) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		for wi, w := range b {
			for ; w != 0; w &= w - 1 {
				if !yield(wi<<6 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// bitList lists the set bits of b in ascending order.
func bitList(b []uint64) []int {
	k := 0
	for _, w := range b {
		k += bits.OnesCount64(w)
	}
	return slices.AppendSeq(make([]int, 0, k), bitNodes(b))
}

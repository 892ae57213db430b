package ecrpq

import (
	"math/bits"
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
//
// A warm store often holds complete every table the join reads: the join
// then reads each one in place from its first probe, and the pass would
// have the store file nothing. So the pass runs only up to the last step
// whose table is not complete (lastFill), and not at all when there is none.

// probeFrontiers runs the pass over p. It stops at the first step it cannot
// model — a relation group, an atom that is not a lazily probed one — or
// that nothing modelable follows, after the last step whose memo it fills,
// at an empty candidate set (the join ends there too), and when the budget
// cancels.
func (ev *evaluator) probeFrontiers(p *plan) {
	last := ev.lastFill(p)
	if last < 0 {
		return
	}
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
		if sup == nil {
			if scan && !pa.view(forward) {
				srcs = ev.nodes() // every node: the sweep completes the store's table, unranked
			}
			pa.prefetch(srcs, forward)
		}
		if ev.bud.Canceled() || i == last || probeOf(i+1) == nil {
			return
		}
		memo := pa.memo(forward)
		if scan && (sup != nil || memo.tab.complete()) {
			srcs = bitList(memo.sup) // the nodes with a row, not every node; a sup is this memo's (support)
		}

		// Narrow the near slot to the nodes with a partner, and collect the
		// partners when the join binds (or has bound) the far slot.
		farKnown := cand[far] != nil
		clear(want)
		clear(got)
		for _, w := range cand[far] {
			bitSet(want, w)
		}
		kept := make([]int, 0, len(srcs))
		for _, u := range srcs {
			var row []int // stays empty under a support: the bitset decides
			if sup == nil {
				row, _, _ = memo.get(u)
			}
			matched := sup != nil && bitHas(sup, u)
			for _, w := range row {
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

// lastFill returns the index of the last step whose memo the pass fills: of
// the steps it would model, the last that the join does not answer from a
// support and that reads, in the direction the join walks it, a row table
// the store does not hold complete at its revision; -1 when there is none.
// It only looks: it settles no stale entry, files no inversion and takes
// no header. For a ranked run, whose rows carry costs, and a plan of over 64
// slots it returns the last step.
func (ev *evaluator) lastFill(p *plan) int {
	if ev.ranked || len(p.vars) > 64 {
		return len(p.steps) - 1
	}
	last := -1
	var bound uint64 // the slots bound before the step, as the pass's candidates are
	for s, v := range p.init {
		if v >= 0 {
			bound |= 1 << s
		}
	}
	s := ev.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range p.steps {
		st := &p.steps[i]
		pa, ok := st.src.(*probeAtom)
		if !ok {
			break // the pass stops here
		}
		if forward, bySupport := st.walk(bound>>st.from&1 != 0, bound>>st.to&1 != 0); !bySupport {
			e := s.m[pa.atom.key]
			if e == nil || e.rev != s.atomFacts.rev || !e.rows[side(!forward)].complete() {
				last = i
			}
		}
		if st.bindFrom {
			bound |= 1 << st.from
		}
		if st.bindTo {
			bound |= 1 << st.to
		}
	}
	return last
}

// nextBit returns the first set bit of b at or after i, -1 when there is none.
func nextBit(b []uint64, i int) int {
	for wi := i >> 6; wi < len(b); wi++ {
		w := b[wi]
		if wi == i>>6 {
			w &= ^uint64(0) << (uint(i) & 63)
		}
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// bitList lists the set bits of b in ascending order.
func bitList(b []uint64) []int {
	k := 0
	for _, w := range b {
		k += bits.OnesCount64(w)
	}
	out := make([]int, 0, k)
	for u := nextBit(b, 0); u >= 0; u = nextBit(b, u+1) {
		out = append(out, u)
	}
	return out
}

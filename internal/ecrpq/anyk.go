package ecrpq

// Incremental any-k ranked enumeration: the best-first driver over compiled
// plans (plan.go), which enumerates a step's bindings through the frame the
// backtracking search runs on. Instead of draining the whole enumeration and sorting it
// before serving row one, AnyK searches over partial assignments,
// Lawler-style: the answer space is partitioned by the rank of the extension
// chosen at each join constraint, every node of the partition tree is pushed
// exactly once, and the priority key of a node is
//
//	cost(determined constraints) + lb(remaining constraints)
//
// where lb is an admissible per-suffix lower bound — each undetermined
// constraint contributes a lower bound of its witness contribution (step.min:
// no binding of that atom costs less). Keys are monotone along tree edges: a
// child determines one more constraint at actual cost d ≥ that constraint's
// bound, so pops come off the heap in nondecreasing key order and a complete
// assignment (whose key IS its exact cost, the suffix bound being empty) is
// emitted in nondecreasing cost. Top-k therefore costs O(k) tree expansions after the
// first constraint's extension list is built — no full drain.
//
// Extension lists are computed lazily per (constraint, bound-variable
// values) and memoized: a popped node materializes the cost-sorted list of
// ways to satisfy its next constraint, pushes the child for its rank and one
// sibling for rank+1, and nothing else. Emission is NOT deduplicated (the
// same tuple may complete under several assignments, each with its own
// cost); the cxrpq layer keeps the first — i.e. cheapest — occurrence,
// which is exact precisely because costs are nondecreasing.
//
// Multiple roots (VSF branch combos, bounded-engine variable mappings) share
// one heap, so the merged emission across all of them is globally
// nondecreasing too.

import (
	"cmp"
	"slices"

	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
)

// extList is the cost-sorted, memoized list of the ways to satisfy a step
// under one binding of its slots: way i contributes d[i] to the witness cost
// and sets the step's slots (rt.slots[ci]) to row i of vals. Two pointer-free
// slabs per list, whatever its length.
type extList struct {
	d    []int32
	vals []int32
}

// anykRoot is one independent enumeration source feeding the shared heap: a
// member's compiled plan over its lazily probed atoms (AddUnion).
type anykRoot struct {
	bud   *engine.Budget
	p     *plan
	slots [][]int32 // per step: the slots it reads or binds (unique)
	lb    []int32   // lb[i] = admissible lower bound of steps i..end; lb[len] = 0
	memo  []extMemo // per step: its extension lists by bound-slot values

	// The assignments of the root's queued nodes, len(p.init) slots each. A row
	// belongs to one queued node at a time (a popped node hands it to its
	// rank+1 sibling) and returns to freeRows when that chain ends.
	rows     []int32
	nrows    int32
	freeRows []int32

	fr           frame   // the choice point extend enumerates a step by
	hint         []int   // per step: last extension-list length (presize hint)
	perm, sd, sv []int32 // sortExts scratch, reused across extends
	key          []int32 // extend's lookup key
}

// extMemo holds one step's extension lists by the values of the step's slots
// (all it reads of an assignment): lists[i] belongs to row i of keys.
type extMemo struct {
	tab   pattern.RowTable
	keys  []int32
	lists []extList
}

// anykNode is one node of the Lawler partition tree: steps before ci are
// determined in its assignment row at total witness cost cost, and the node
// stands for choosing extension rank of step ci (a node with ci ==
// len(steps) is a complete assignment).
type anykNode struct {
	root     int32 // index into AnyK.roots
	ci, rank int32
	cost     int32
	row      int32 // its assignment: a row of the root's rows
}

// AnyK is the incremental ranked enumerator. Zero or more roots are added
// (AddUnion), then Next pops complete assignments in globally
// nondecreasing witness cost until the space is exhausted or the budget
// cancels. Not safe for concurrent use.
//
// Popped nodes are recycled through free, so nodes is as large as the queue
// has been, not as the enumeration is long; the heap therefore breaks cost
// ties on a push sequence number (wItem.idx), not on the reused slot (ref).
type AnyK struct {
	bud   *engine.Budget
	roots []*anykRoot
	h     wHeap
	nodes []anykNode
	free  []int32
	seq   int
	pops  int
	out   []int32 // the row Next returns
}

// NewAnyK returns an enumerator under o's optional budget (nil = unlimited),
// polled every 64 pops and inside every extension computation. An
// enumerator is always ranked and takes a weight per root.
func NewAnyK(o Options) *AnyK {
	return &AnyK{bud: o.Budget}
}

func (a *AnyK) pushNode(nd anykNode, key int32) {
	ref := int32(len(a.nodes))
	if n := len(a.free); n > 0 {
		ref, a.free = a.free[n-1], a.free[:n-1]
		a.nodes[ref] = nd
	} else {
		a.nodes = append(a.nodes, nd)
	}
	a.h.push(wItem{cost: key, idx: a.seq, ref: ref})
	a.seq++
}

func (rt *anykRoot) assign(r int32) []int32 {
	w := len(rt.p.init)
	return rt.rows[int(r)*w : int(r+1)*w]
}

// newRow returns a row holding a copy of src.
func (rt *anykRoot) newRow(src []int32) int32 {
	if n := len(rt.freeRows); n > 0 {
		r := rt.freeRows[n-1]
		rt.freeRows = rt.freeRows[:n-1]
		copy(rt.assign(r), src)
		return r
	}
	rt.rows = append(rt.rows, src...)
	rt.nrows++
	return rt.nrows - 1
}

// addRoot registers a compiled (ranked) plan as an enumeration source.
func (a *AnyK) addRoot(p *plan) {
	n := len(p.steps)
	rt := &anykRoot{bud: a.bud, p: p, slots: make([][]int32, n), lb: make([]int32, n+1),
		memo: make([]extMemo, n), hint: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		st := &p.steps[i]
		all := []int32{st.from, st.to}
		if st.grp != nil {
			all = append(append([]int32(nil), st.grp.src...), st.grp.tgt...)
		}
		for _, s := range all {
			if !slices.Contains(rt.slots[i], s) {
				rt.slots[i] = append(rt.slots[i], s)
			}
		}
		rt.lb[i] = rt.lb[i+1] + st.min
	}
	a.roots = append(a.roots, rt)
	a.pushNode(anykNode{root: int32(len(a.roots) - 1), row: rt.newRow(p.init)}, rt.lb[0])
}

// extend materializes (or recalls) the cost-sorted extension list of step ci
// under assign. ok is false when the budget cut the computation: the list is
// then partial, is not memoized and must not be ranked from.
func (rt *anykRoot) extend(ci int, assign []int32) (l extList, ok bool) {
	slots, m := rt.slots[ci], &rt.memo[ci]
	key := rt.key[:0]
	for _, s := range slots {
		key = append(key, assign[s])
	}
	rt.key = key
	at, slot := m.tab.Find(m.keys, len(slots), key)
	if at >= 0 {
		return m.lists[at], true
	}
	// Presize from the previous list of the same step: siblings in the
	// partition tree materialize lists of similar length, and append-doubling
	// on the ~1k-wide cohort lists used to dominate allocation churn.
	h := rt.hint[ci]
	l = extList{d: make([]int32, 0, h), vals: make([]int32, 0, h*len(slots))}
	f := &rt.fr
	f.open(&rt.p.steps[ci], assign)
	for d, ok := f.next(assign); ok; d, ok = f.next(assign) {
		l.d = append(l.d, d)
		for _, s := range slots {
			l.vals = append(l.vals, assign[s]) // a ranked step binds every slot it touches
		}
		if len(l.d)%1024 == 0 && rt.bud.Canceled() {
			break // the assignment is left as it is: nothing reads it again
		}
	}
	rt.hint[ci] = len(l.d)
	rt.sortExts(l, len(slots))
	if rt.bud.Canceled() {
		return l, false
	}
	m.keys = append(m.keys, key...)
	m.lists = append(m.lists, l)
	m.tab.Set(m.keys, len(slots), slot, int32(len(m.lists)-1))
	rt.prefetchNext(ci, l, assign)
	return l, true
}

// prefetchNext batches the per-source searches the cheapest cohort of a
// fresh extension list is about to trigger. Every extension tied at the
// minimum cost spawns a child with the same heap key, so before the
// enumerator can emit its first row at that key it expands all of them — and
// when the next step is a lazily probed atom with exactly one endpoint
// bound, each expansion is one single-source reachability search. Issuing
// those individually wastes the multi-source kernel (one batch per 64
// sources); this collects the cohort's distinct sources and fills the probe
// memo in one batched sweep. Extensions beyond the cheapest cohort are left
// to fault in lazily — under distinct costs (e.g. pluggable weights) the
// cohort is one node and the prefetch degenerates to a no-op.
func (rt *anykRoot) prefetchNext(ci int, l extList, assign []int32) {
	if ci+1 >= len(rt.p.steps) || len(l.d) < 2 {
		return
	}
	st := &rt.p.steps[ci+1]
	probe, lazy := st.src.(*probeAtom)
	if !lazy {
		return // a relation group
	}
	pos := func(s int32) int {
		for i, t := range rt.slots[ci] {
			if t == s {
				return i
			}
		}
		return -1
	}
	fi, ti := pos(st.from), pos(st.to)
	fromKnown, toKnown := assign[st.from] >= 0 || fi >= 0, assign[st.to] >= 0 || ti >= 0
	if fromKnown == toKnown {
		return // both or neither endpoint determined: not a single-source search
	}
	idx := fi
	if toKnown {
		idx = ti
	}
	if idx < 0 {
		return // the determined endpoint is already fixed in assign: one source
	}
	seen := make(map[int32]bool, len(l.d))
	srcs := make([]int, 0, len(l.d))
	for i, d := range l.d {
		if d != l.d[0] {
			break // sorted: the cheapest cohort is a prefix
		}
		if v := l.vals[i*len(rt.slots[ci])+idx]; !seen[v] {
			seen[v] = true
			srcs = append(srcs, int(v))
		}
	}
	if len(srcs) >= 2 {
		probe.prefetch(srcs, fromKnown)
	}
}

// sortExts orders an extension list of w-wide value rows by cost, stably
// (within a cost, the satisfy paths' deterministic enumeration order is
// preserved — rank indexing and cursor fast-forward both depend on it). Costs
// are small BFS levels or clamped weighted distances, so the common case is a
// stable counting sort; wide or negative cost ranges fall back to a
// comparison sort of the permutation. Either way the list is gathered through
// root-owned scratch: extension sorting used to dominate the
// time-to-first-row of cohort-heavy unit-cost queries.
func (rt *anykRoot) sortExts(l extList, w int) {
	n := len(l.d)
	if n < 2 || slices.IsSorted(l.d) {
		return
	}
	perm := slices.Grow(rt.perm[:0], n)[:n] // perm[i]: the extension that goes i-th
	if lo, hi := slices.Min(l.d), slices.Max(l.d); lo >= 0 && int(hi) <= 4*n+1024 {
		counts := make([]int32, hi+2)
		for _, d := range l.d {
			counts[d+1]++
		}
		for d := 1; d < len(counts); d++ {
			counts[d] += counts[d-1]
		}
		for i, d := range l.d {
			perm[counts[d]] = int32(i)
			counts[d]++
		}
	} else {
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortStableFunc(perm, func(x, y int32) int { return cmp.Compare(l.d[x], l.d[y]) })
	}
	sd, sv := slices.Grow(rt.sd[:0], n)[:n], slices.Grow(rt.sv[:0], n*w)[:n*w]
	for i, p := range perm {
		sd[i] = l.d[p]
		copy(sv[i*w:(i+1)*w], l.vals[int(p)*w:])
	}
	copy(l.d, sd)
	copy(l.vals, sv)
	rt.perm, rt.sd, rt.sv = perm, sd, sv
}

// Next pops the next complete assignment's output projection and exact
// witness cost, in globally nondecreasing cost across every root; the row is
// overwritten by the next call. ok is false when the space is exhausted or
// the budget canceled — the caller tells the two apart by the budget's Err.
func (a *AnyK) Next() (row []int32, cost int, ok bool) {
	for len(a.h) > 0 {
		if a.pops%64 == 0 && a.bud.Canceled() {
			return nil, 0, false
		}
		a.pops++
		ref := a.h.pop().ref
		nd := a.nodes[ref]
		a.free = append(a.free, ref)
		rt := a.roots[nd.root]
		assign := rt.assign(nd.row)
		if int(nd.ci) == len(rt.p.steps) {
			a.out = slices.Grow(a.out[:0], len(rt.p.out))[:len(rt.p.out)]
			rt.p.project(assign, a.out)
			rt.freeRows = append(rt.freeRows, nd.row)
			return a.out, int(nd.cost), true
		}
		l, ok := rt.extend(int(nd.ci), assign)
		if !ok {
			return nil, 0, false
		}
		if int(nd.rank) >= len(l.d) {
			rt.freeRows = append(rt.freeRows, nd.row)
			continue
		}
		slots, d := rt.slots[nd.ci], l.d[nd.rank]
		// The rank+1 sibling inherits the row and the child gets a copy; the
		// last of a chain has no sibling, so its child takes the row over.
		crow := nd.row
		if int(nd.rank)+1 < len(l.d) {
			crow = rt.newRow(assign)
			a.pushNode(anykNode{root: nd.root, ci: nd.ci, rank: nd.rank + 1, cost: nd.cost, row: nd.row},
				nd.cost+l.d[nd.rank+1]+rt.lb[nd.ci+1])
		}
		cassign := rt.assign(crow)
		for i, s := range slots {
			cassign[s] = l.vals[int(nd.rank)*len(slots)+i]
		}
		a.pushNode(anykNode{root: nd.root, ci: nd.ci + 1, cost: nd.cost + d, row: crow},
			nd.cost+d+rt.lb[nd.ci+1])
	}
	return nil, 0, false
}

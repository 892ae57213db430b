package ecrpq

// Incremental any-k ranked enumeration: the best-first driver over compiled
// plans (plan.go). Instead of draining the whole enumeration and sorting it
// before serving row one, AnyK searches over partial assignments,
// Lawler-style: the answer space is partitioned by the rank of the extension
// chosen at each join constraint, every node of the partition tree is pushed
// exactly once, and the priority key of a node is
//
//	cost(determined constraints) + lb(remaining constraints)
//
// where lb is an admissible per-suffix lower bound — each undetermined
// constraint contributes its global minimum witness contribution (step.min:
// the cheapest cost any binding of that atom carries). Keys are monotone along tree edges: a child determines one
// more constraint at actual cost d ≥ that constraint's minimum, so pops come
// off the heap in nondecreasing key order and a complete assignment (whose
// key IS its exact cost, the suffix bound being empty) is emitted in
// nondecreasing cost. Top-k therefore costs O(k) tree expansions after the
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
	"encoding/binary"
	"sort"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
)

// anykExt is one way to satisfy a step: the step's witness contribution and
// the values of its slots (rt.slots[ci]) under that choice. Lists of these
// are cost-sorted and memoized per root.
type anykExt struct {
	d    int32
	vals []int32
}

// anykRoot is one independent enumeration source feeding the shared heap: a
// compiled plan, over an evaluator's lazily probed atoms (AddQuery) or over
// materialized relations (AddJoin — the bounded engine's leaf shape).
type anykRoot struct {
	bud   *engine.Budget
	p     *plan
	slots [][]int32 // per step: the slots it reads or binds (unique)
	lb    []int32   // lb[i] = admissible lower bound of steps i..end; lb[len] = 0
	memo  map[string][]anykExt

	hint    []int     // per step: last extension-list length (presize hint)
	scratch []anykExt // counting-sort scratch, reused across extends
}

// anykNode is one node of the Lawler partition tree: steps before ci are
// determined in assign at total witness cost cost, and the node stands for
// choosing extension rank of step ci (a node with ci == len(steps) is a
// complete assignment). assign is shared with the node's siblings — only
// child creation copies it.
type anykNode struct {
	root   *anykRoot
	ci     int
	rank   int
	cost   int32
	assign []int32
}

// AnyK is the incremental ranked enumerator. Zero or more roots are added
// (AddQuery/AddJoin), then Next pops complete assignments in globally
// nondecreasing witness cost until the space is exhausted or the budget
// cancels. Not safe for concurrent use.
type AnyK struct {
	bud   *engine.Budget
	h     wHeap
	nodes []anykNode
}

// NewAnyK returns an enumerator under an optional budget (nil = unlimited),
// polled once per pop and inside every extension computation.
func NewAnyK(bud *engine.Budget) *AnyK {
	return &AnyK{bud: bud}
}

func (a *AnyK) pushNode(nd anykNode, key int32) {
	a.nodes = append(a.nodes, nd)
	a.h.push(wItem{cost: key, idx: len(a.nodes) - 1})
}

// addRoot registers a compiled (ranked) plan as an enumeration source.
func (a *AnyK) addRoot(p *plan) {
	n := len(p.steps)
	rt := &anykRoot{bud: a.bud, p: p, slots: make([][]int32, n), lb: make([]int32, n+1),
		memo: map[string][]anykExt{}, hint: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		st := &p.steps[i]
		all := []int32{st.from, st.to}
		if st.grp != nil {
			all = append(append([]int32(nil), st.grp.src...), st.grp.tgt...)
		}
		for _, s := range all {
			dup := false
			for _, t := range rt.slots[i] {
				dup = dup || s == t
			}
			if !dup {
				rt.slots[i] = append(rt.slots[i], s)
			}
		}
		rt.lb[i] = rt.lb[i+1] + st.min
	}
	a.pushNode(anykNode{root: rt, assign: p.init}, rt.lb[0])
}

// AddQuery adds a query-form root: q enumerated over db under the
// enumerator's budget, ranked, with an optional pluggable edge weight.
func (a *AnyK) AddQuery(q *Query, db *graph.DB, weight engine.Weight) error {
	ev, err := newEvaluator(q, db, Options{Budget: a.bud, Ranked: true, Weight: weight}, true)
	if err != nil {
		return err
	}
	a.addRoot(ev.compile(nil, false))
	return nil
}

// AddJoin adds a join-form root: a relation-free pattern joined over
// materialized per-edge relations in the physical plan's order (nil spec
// falls back to the structural JoinOrder), with the variables of pre
// pre-bound. The relations should carry levels (BuildRelation) for the costs
// to be meaningful; level-free relations enumerate at cost 0.
func (a *AnyK) AddJoin(g *pattern.Graph, rels []*EdgeRel, spec *planner.PlanSpec, pre map[string]int) {
	for _, r := range rels[:len(g.Edges)] {
		if r == nil {
			return // an atom without a relation has no bindings
		}
	}
	a.addRoot(joinPlan(g, rels, spec, nil, pre, true))
}

// extKey identifies an extension list: the step position plus the
// bound-or-not value of each of its slots (the only parts of assign the
// step reads).
func (rt *anykRoot) extKey(ci int, assign []int32) string {
	buf := make([]byte, 0, 2+5*len(rt.slots[ci]))
	buf = binary.AppendVarint(buf, int64(ci))
	for _, s := range rt.slots[ci] {
		buf = binary.AppendVarint(buf, int64(assign[s]))
	}
	return string(buf)
}

// extend materializes (or recalls) the cost-sorted extension list of step ci
// under assign. A budget-canceled computation may be partial and is not
// memoized.
func (rt *anykRoot) extend(ci int, assign []int32) []anykExt {
	key := rt.extKey(ci, assign)
	if exts, ok := rt.memo[key]; ok {
		return exts
	}
	slots := rt.slots[ci]
	// Presize from the previous list of the same step: siblings in the
	// partition tree materialize lists of similar length, and append-doubling
	// on the ~1k-wide cohort lists used to dominate allocation churn.
	h := rt.hint[ci]
	exts := make([]anykExt, 0, h)
	slab := make([]int32, 0, h*len(slots)) // one backing array for every value tuple
	rt.p.steps[ci].bindings(assign, func(d int32) bool {
		base := len(slab)
		for _, s := range slots {
			slab = append(slab, assign[s]) // a ranked step binds every slot it touches
		}
		exts = append(exts, anykExt{d: d, vals: slab[base:len(slab):len(slab)]})
		return len(exts)%1024 != 0 || !rt.bud.Canceled()
	})
	rt.hint[ci] = len(exts)
	rt.sortExts(exts)
	if !rt.bud.Canceled() {
		rt.memo[key] = exts
		rt.prefetchNext(ci, exts, assign)
	}
	return exts
}

// prefetchNext batches the per-source searches the cheapest cohort of a
// fresh extension list is about to trigger. Every extension tied at the
// minimum cost spawns a child with the same heap key, so before the
// enumerator can emit its first row at that key it expands all of them — and
// when the next step is a lazily probed atom with exactly one endpoint
// bound, each expansion is one single-source reachability search. Issuing
// those individually wastes the sharded multi-source kernel; this collects
// the cohort's distinct sources and fills the probe memo in one batched
// sweep. Extensions beyond the cheapest cohort are left to fault in lazily —
// under distinct costs (e.g. pluggable weights) the cohort is one node and
// the prefetch degenerates to a no-op.
func (rt *anykRoot) prefetchNext(ci int, exts []anykExt, assign []int32) {
	if ci+1 >= len(rt.p.steps) || len(exts) < 2 {
		return
	}
	st := &rt.p.steps[ci+1]
	probe, lazy := st.src.(*probeAtom)
	if !lazy {
		return
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
	cohort := exts[0].d
	seen := make(map[int32]bool, len(exts))
	srcs := make([]int, 0, len(exts))
	for _, x := range exts {
		if x.d != cohort {
			break // sorted: the cheapest cohort is a prefix
		}
		if v := x.vals[idx]; !seen[v] {
			seen[v] = true
			srcs = append(srcs, int(v))
		}
	}
	if len(srcs) >= 2 {
		probe.prefetch(srcs, fromKnown)
	}
}

// sortExts orders an extension list by cost, stably (within a cost, the
// satisfy paths' deterministic enumeration order is preserved — rank
// indexing and cursor fast-forward both depend on it). Costs are small BFS
// levels or clamped weighted distances, so the common case is a stable
// counting sort into a root-owned scratch buffer — extension sorting used to
// dominate the time-to-first-row of cohort-heavy unit-cost queries through
// reflect-based SliceStable, and per-call scratch allocation through the
// zeroing of pointer-bearing memory. Wide or negative cost ranges fall back
// to the comparison sort.
func (rt *anykRoot) sortExts(exts []anykExt) {
	if len(exts) < 2 {
		return
	}
	maxD := int32(0)
	narrow := true
	for i := range exts {
		d := exts[i].d
		if d < 0 || d > 1<<20 {
			narrow = false
			break
		}
		if d > maxD {
			maxD = d
		}
	}
	if !narrow || int(maxD) > 4*len(exts)+1024 {
		sort.SliceStable(exts, func(i, j int) bool { return exts[i].d < exts[j].d })
		return
	}
	counts := make([]int32, maxD+2)
	for i := range exts {
		counts[exts[i].d+1]++
	}
	for d := 1; d < len(counts); d++ {
		counts[d] += counts[d-1]
	}
	if cap(rt.scratch) < len(exts) {
		rt.scratch = make([]anykExt, len(exts))
	}
	out := rt.scratch[:len(exts)]
	for i := range exts {
		d := exts[i].d
		out[counts[d]] = exts[i]
		counts[d]++
	}
	copy(exts, out)
}

// Next pops the next complete assignment's output projection and exact
// witness cost, in globally nondecreasing cost across every root. ok is
// false when the space is exhausted or the budget canceled — the caller
// distinguishes the two through the budget's Err.
func (a *AnyK) Next() (pattern.Tuple, int, bool) {
	for len(a.h) > 0 {
		if a.bud.Canceled() {
			return nil, 0, false
		}
		nd := a.nodes[a.h.pop().idx] // copy: pushNode below may grow the slab
		rt := nd.root
		if nd.ci == len(rt.p.steps) {
			return rt.p.project(nd.assign), int(nd.cost), true
		}
		exts := rt.extend(nd.ci, nd.assign)
		if nd.rank >= len(exts) {
			continue
		}
		ext := exts[nd.rank]
		if nd.rank+1 < len(exts) {
			a.pushNode(
				anykNode{root: rt, ci: nd.ci, rank: nd.rank + 1, cost: nd.cost, assign: nd.assign},
				nd.cost+exts[nd.rank+1].d+rt.lb[nd.ci+1])
		}
		child := anykNode{root: rt, ci: nd.ci + 1, cost: nd.cost + ext.d}
		child.assign = append([]int32(nil), nd.assign...)
		for i, s := range rt.slots[nd.ci] {
			child.assign[s] = ext.vals[i]
		}
		a.pushNode(child, child.cost+rt.lb[nd.ci+1])
	}
	return nil, 0, false
}

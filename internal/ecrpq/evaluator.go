package ecrpq

import (
	"slices"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// evaluator binds one query to one database for one evaluation. It owns the
// lazily probed atom sources (one per pattern edge), the per-group search
// scratch with its expansion memo and the planner's minimization verdict,
// and compiles the conjunct into a plan for whichever driver the entry point
// runs.
//
// The algorithm follows the product constructions behind the paper's NL
// upper bounds, realized deterministically: ungrouped edges become binary
// reachability relations solved by the integer-interned product core of
// internal/engine (label-indexed CSR graph × on-the-fly determinized NFA);
// each relation group is expanded by a synchronized product over D^s
// (group.go); the join over node variables combines them (plan.go).
type evaluator struct {
	q        *Query
	db       *graph.DB
	ix       *graph.Index
	stats    *graph.Stats
	store    *AtomStore // of db: relations and supports outlive the evaluation there
	sigma    []rune
	atoms    []probeAtom     // per pattern edge
	gscratch []*groupScratch // per group

	inGroup []bool

	// dropped marks edges deleted by the planner's containment-based
	// minimization pass (planner.Tuning.Minimize): an ungrouped edge whose
	// language contains a kept same-endpoint edge's language is implied
	// by it and never joined.
	dropped []bool

	// bud is polled at level granularity inside the searches and per node
	// in the join recursion; nil means unlimited. ranked makes every probe
	// and group expansion capture witness costs — edge counts, or minimum
	// total weights under weight (see Options). The memos are per
	// evaluator, so costs of different weights never mix.
	bud    *engine.Budget
	ranked bool
	weight engine.Weight
	tune   planner.Tuning

	// lazy is set by the entry points that want a first answer rather than
	// the whole set (Boolean, check, witness, streams): a both-ends-unbound
	// atom is then scanned in escalating source chunks instead of one full
	// multi-source sweep, the probe memos fill as the search asks instead of
	// a frontier at a time, and relations are never materialized for the
	// Yannakakis program.
	lazy bool
}

// rankedWeight returns the weight to hand the kernels: only a ranked
// evaluation consumes cost data, so unranked runs keep the plain BFS.
func (ev *evaluator) rankedWeight() engine.Weight {
	if !ev.ranked {
		return nil
	}
	return ev.weight
}

func newEvaluator(q *Query, db *graph.DB, o Options, lazy bool) (*evaluator, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sigma := xregex.MergeAlphabets(db.Alphabet(), xregex.AlphabetOf(q.Pattern.Labels()...))
	ev := &evaluator{
		q:        q,
		db:       db,
		ix:       db.Index(),
		stats:    db.Stats(),
		store:    Atoms(db),
		sigma:    sigma,
		atoms:    make([]probeAtom, len(q.Pattern.Edges)),
		gscratch: make([]*groupScratch, len(q.Groups)),
		inGroup:  make([]bool, len(q.Pattern.Edges)),
		bud:      o.Budget,
		ranked:   o.Ranked,
		weight:   o.Weight,
		tune:     o.Tuning,
		lazy:     lazy,
	}
	for i, e := range q.Pattern.Edges {
		ent, err := compiledFor(e.Label, sigma)
		if err != nil {
			return nil, err
		}
		ev.atoms[i] = probeAtom{ev: ev, ent: ent}
	}
	for gi, g := range q.Groups {
		ev.gscratch[gi] = newGroupScratch(ev, g)
		for _, ei := range g.Edges {
			ev.inGroup[ei] = true
		}
	}
	// Containment-based minimization: delete redundant ungrouped atoms
	// before any relation work. Grouped edges are ineligible (their
	// semantics involve the group relation, not the edge language alone)
	// and marked with a nil cache.
	minAtoms := make([]planner.MinAtom, len(q.Pattern.Edges))
	for i, e := range q.Pattern.Edges {
		minAtoms[i] = planner.MinAtom{From: e.From, To: e.To}
		if !ev.inGroup[i] {
			minAtoms[i].Cache = ev.atoms[i].ent.cache
		}
	}
	ev.dropped = ev.tune.Minimize(minAtoms, 0)
	return ev, nil
}

// probeAtom is the lazily probed atomSource of one pattern edge: product
// searches memoized per node and direction. A miss is answered by one
// single-source search (engine.Reach); prefetch answers many nodes at once
// through the multi-source kernel, and every driver that knows a set of
// nodes it is about to ask for — the scan, the frontier pass of a
// materializing run (frontier.go), the best-first driver's cohorts — goes
// through it.
type probeAtom struct {
	ev       *evaluator
	ent      *compiledEntry // shared compiled NFA + subset caches
	fwd, rev probeMemo
}

type probeRow struct {
	nodes []int
	costs []int32 // nil unless the evaluator is ranked
}

// probeMemo is one direction's memo: the rows probed so far, found through a
// dense node index, so a lookup on the join's inner path is two loads and no
// hashing. The index is allocated when the first row arrives.
type probeMemo struct {
	at   []int32 // [node] -> 1 + position in rows; 0 = not probed
	rows []probeRow
	sup  []uint64 // the nodes with a non-empty row, once asked for (support)
}

func (m *probeMemo) get(u int) (probeRow, bool) {
	if uint(u) >= uint(len(m.at)) || m.at[u] == 0 {
		return probeRow{}, false
	}
	return m.rows[m.at[u]-1], true
}

// put stores the row of node u, one of n; an out-of-range u (which has no
// hits) is not stored.
func (m *probeMemo) put(n, u int, r probeRow) {
	if m.at == nil {
		m.at = make([]int32, n)
	}
	if uint(u) >= uint(len(m.at)) {
		return
	}
	m.rows = append(m.rows, r)
	m.at[u] = int32(len(m.rows))
}

// side returns the memo and the automaton of one search direction.
func (p *probeAtom) side(forward bool) (*probeMemo, *automata.SubsetCache) {
	if forward {
		return &p.fwd, p.ent.cache
	}
	_, rc := p.ent.reverse()
	return &p.rev, rc
}

func (p *probeAtom) reachOpts() engine.ReachOpts {
	return engine.ReachOpts{Budget: p.ev.bud, Levels: p.ev.ranked, Weight: p.ev.rankedWeight()}
}

// probe returns the nodes reachable from node through a path matching the
// edge's regex — targets when forward, sources otherwise — with their costs
// when ranked. A search cut short by the budget is returned for the current
// unwinding but never memoized: a truncated list would poison later lookups.
func (p *probeAtom) probe(node int, forward bool) ([]int, []int32) {
	memo, c := p.side(forward)
	if r, ok := memo.get(node); ok {
		return r.nodes, r.costs
	}
	hits, levs := engine.Reach(p.ev.ix, c, node, forward, p.reachOpts())
	if !p.ev.bud.Canceled() {
		memo.put(p.ev.ix.NumNodes(), node, probeRow{hits, levs})
	}
	return hits, levs
}

// prefetch fills the memo for exactly the given (in-range) nodes in one
// sharded multi-source sweep (engine.ReachBatchEx: one batch per 64 nodes)
// instead of one search each. A truncated sweep memoizes nothing.
func (p *probeAtom) prefetch(nodes []int, forward bool) {
	memo, c := p.side(forward)
	missing := nodes
	if len(memo.rows) > 0 {
		missing = nil // usually stays so: the frontier pass has been here
		for _, u := range nodes {
			if _, ok := memo.get(u); !ok {
				missing = append(missing, u)
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	ev := p.ev
	res := engine.ReachBatchEx(ev.ix, c, missing, forward, p.reachOpts())
	if res.Truncated {
		return
	}
	memo.rows = slices.Grow(memo.rows, len(missing))
	for i, u := range missing {
		row := probeRow{nodes: res.Hits[i]}
		if res.Levs != nil {
			row.costs = res.Levs[i]
		}
		memo.put(ev.ix.NumNodes(), u, row)
	}
}

// support is the atom store's support bitset in place of a row per node: the
// sources when forward, else the targets. A sweep the budget cut leaves nil
// and sends the caller back to the rows, where the same budget unwinds it.
func (p *probeAtom) support(forward bool) []uint64 {
	memo, _ := p.side(forward)
	if memo.sup == nil {
		memo.sup, _ = p.ev.store.support(p.ent, !forward, p.ev.bud)
	}
	return memo.sup
}

func (p *probeAtom) forward(u int) ([]int, []int32)  { return p.probe(u, true) }
func (p *probeAtom) backward(v int) ([]int, []int32) { return p.probe(v, false) }

func (p *probeAtom) has(u, v int) (int32, bool) {
	ws, ds := p.probe(u, true)
	return costOf(ws, ds, v)
}

// scan walks every node. A materializing evaluation prefetches them all
// in one sweep (which finds nothing missing when the frontier pass modelled
// this step); a lazy one walks escalating chunks (1, 4, 16, 64, then
// 256-wide) so the first row costs one small batch, while the geometric
// growth keeps the full drain within a constant factor of the single sweep.
func (p *probeAtom) scan(forward bool, f func(u int, vs []int, costs []int32) bool) {
	n := p.ev.db.NumNodes()
	chunk := n
	if p.ev.lazy {
		chunk = 1
	}
	for lo := 0; lo < n; {
		if p.ev.lazy && p.ev.bud.Canceled() {
			return
		}
		hi := min(lo+chunk, n)
		srcs := make([]int, 0, hi-lo)
		for u := lo; u < hi; u++ {
			srcs = append(srcs, u)
		}
		p.prefetch(srcs, forward)
		for _, u := range srcs {
			if ws, ds := p.probe(u, forward); len(ws) > 0 && !f(u, ws, ds) {
				return
			}
		}
		lo = hi
		if chunk < 256 {
			chunk *= 4
		}
	}
}

// planAtoms returns the join's atoms — the ungrouped edges minimization kept
// — with their planner view: each edge NFA's estimation shape crossed with
// the database's per-label statistics.
func (ev *evaluator) planAtoms() (edges []int, atoms []planner.Atom) {
	for i, e := range ev.q.Pattern.Edges {
		if !ev.inGroup[i] && !ev.dropped[i] {
			edges = append(edges, i)
			atoms = append(atoms, planner.Atom{From: e.From, To: e.To, Est: ev.atoms[i].ent.shape().Estimate(ev.stats)})
		}
	}
	return edges, atoms
}

// compile builds the conjunct's plan over the lazily probed atoms: the kept
// ungrouped edges in the cost-based planner's order (bound-variable
// selectivity propagated from pre), then the relation groups in query order.
// This is the single ordering decision behind every evaluator entry point.
func (ev *evaluator) compile(pre map[string]int, bindAll bool) *plan {
	edges, atoms := ev.planAtoms()
	return ev.compileOrder(edges, planner.Order(atoms, boundSet(pre)), pre, bindAll)
}

// compileOrder is compile over an order already planned for edges.
func (ev *evaluator) compileOrder(edges []int, spec *planner.PlanSpec, pre map[string]int, bindAll bool) *plan {
	p := newPlan(ev.ranked, len(edges)+len(ev.q.Groups))
	for _, ai := range spec.Order {
		ei := edges[ai]
		e := ev.q.Pattern.Edges[ei]
		p.addAtom(&ev.atoms[ei], e.From, e.To, ev.edgeMinCost(ei))
	}
	for gi := range ev.q.Groups {
		p.addGroup(ev, gi)
	}
	p.seal(ev.q.Pattern.Out, pre, bindAll)
	return p
}

// edgeMinCost is the admissible lower bound of an edge's witness cost: 0
// when the edge language accepts the empty word (a node can witness itself
// for free), otherwise the cheapest single traversal — 1 under unit cost,
// the minimum clamped symbol weight under a pluggable weight.
func (ev *evaluator) edgeMinCost(ei int) int32 {
	c := ev.atoms[ei].ent.cache
	nSyms := ev.ix.NumSyms()
	if !ev.ranked || c.Final(c.Start()) || nSyms == 0 {
		return 0
	}
	if ev.weight == nil {
		return 1
	}
	m := ev.symCost(ev.ix.Sym(0))
	for s := int32(1); s < int32(nSyms); s++ {
		m = min(m, ev.symCost(ev.ix.Sym(s)))
	}
	return m
}

// stream enumerates the query's answers with the variables of pre pre-
// bound: the Yannakakis program when the planner's gate picks it
// (yannakakis.go), the backtracking join over the lazily probed atoms
// otherwise — same yields, same budget discipline. A materializing run fills
// the probe memos a frontier at a time first (frontier.go); the join then
// finds them there.
func (ev *evaluator) stream(pre map[string]int, yield StreamFunc) {
	edges, atoms := ev.planAtoms()
	spec := planner.Order(atoms, boundSet(pre))
	p, ok := ev.yannakakisPlan(edges, atoms, spec, pre)
	if !ok {
		p = ev.compileOrder(edges, spec, pre, false)
		if !ev.lazy {
			ev.probeFrontiers(p)
		}
	}
	if p != nil {
		p.stream(ev.bud, yield)
	}
}

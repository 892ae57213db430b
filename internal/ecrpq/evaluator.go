package ecrpq

import (
	"slices"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// evaluator binds one query to one database for one evaluation. It owns the
// lazily probed atom sources (one per pattern edge) and the per-group search
// scratch with its expansion memo, and compiles the conjunct into a plan for
// whichever driver the entry point runs. A pattern-form leaf's evaluator
// holds the run's pattern, with no groups, and the atoms it sets on the
// edges (Leaf.Set); it compiles its plans itself (NewLeaf).
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
	store    *AtomStore // of db: supports and probe rows outlive the evaluation there
	sigma    []rune
	atoms    []probeAtom     // per pattern edge
	gscratch []*groupScratch // per group

	inGroup []bool

	// bud is polled at level granularity inside the searches and per node
	// in the join recursion; nil means unlimited. ranked makes every probe
	// and group expansion capture witness costs — edge counts, or minimum
	// total weights under weight (see Options). The memos are per
	// evaluator, so costs of different weights never mix.
	bud    *engine.Budget
	ranked bool
	weight engine.Weight

	all []int // every node, in order (nodes)

	// lazy is set by the entry points that want a first answer rather than
	// the whole set (Boolean, check, witness, streams): a both-ends-unbound
	// atom is then scanned in escalating source chunks instead of one full
	// multi-source sweep, and the probe memos fill as the search asks
	// instead of a frontier at a time.
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

// init binds ev to q over db under o.
func (ev *evaluator) init(q *Query, db *graph.DB, o Options, lazy bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	sigma := xregex.MergeAlphabets(db.Alphabet(), xregex.AlphabetOf(q.Pattern.Labels()...))
	*ev = evaluator{
		q:        q,
		db:       db,
		ix:       db.Index(),
		store:    Atoms(db),
		sigma:    sigma,
		atoms:    make([]probeAtom, len(q.Pattern.Edges)),
		gscratch: make([]*groupScratch, len(q.Groups)),
		inGroup:  make([]bool, len(q.Pattern.Edges)),
		bud:      o.Budget,
		ranked:   o.Ranked,
		weight:   o.Weight,
		lazy:     lazy,
	}
	for i, e := range q.Pattern.Edges {
		a, err := ev.store.Atom(e.Label, sigma)
		if err != nil {
			return err
		}
		ev.atoms[i] = probeAtom{ev: ev, atom: a}
	}
	for gi, g := range q.Groups {
		ev.gscratch[gi] = newGroupScratch(ev, g)
		for _, ei := range g.Edges {
			ev.inGroup[ei] = true
		}
	}
	return nil
}

// probeAtom is the lazily probed atomSource of one pattern edge: product
// searches memoized per node and direction. A miss asks the atom store for
// one row (AtomStore.rows: a stored row, else one single-source search); prefetch asks it for many nodes at once, which it searches through
// the multi-source kernel, and every driver that knows a set of nodes it is
// about to ask for — the scan, the frontier pass of a materializing run
// (frontier.go), the best-first driver's cohorts — goes through it. The memo
// is the evaluator's lock-free view of what it was handed.
type probeAtom struct {
	ev       *evaluator
	atom     *Atom // the edge's label over the evaluation's Σ, held by the store
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
	tab  rowTable // the store's complete table, read in place instead, once adopted
	at   []int32  // [node] -> 1 + position in rows; 0 = not probed
	rows []probeRow
	sup  []uint64 // the nodes with a non-empty row, once asked for (support)
}

func (m *probeMemo) get(u int) (probeRow, bool) {
	if nodes, ok := m.tab.get(u); ok {
		return probeRow{nodes: nodes}, true
	}
	if uint(u) >= uint(len(m.at)) || m.at[u] == 0 {
		return probeRow{}, false
	}
	return m.rows[m.at[u]-1], true
}

// memo returns the memo of one search direction.
func (p *probeAtom) memo(forward bool) *probeMemo {
	if forward {
		return &p.fwd
	}
	return &p.rev
}

// fetch asks the atom store for the rows of nodes, written straight into the
// tail of the memo, and returns them; it indexes them — allocating the index
// on first use — unless the budget cut the search: a truncated list would
// poison later lookups. An out-of-range node (which has no hits) is not
// indexed. Ranked evaluations get rows with costs, searched for them alone.
func (p *probeAtom) fetch(nodes []int, forward bool) []probeRow {
	ev, m := p.ev, p.memo(forward)
	k := len(m.rows)
	m.rows = slices.Grow(m.rows, len(nodes))[:k+len(nodes)]
	out := m.rows[k:]
	clear(out)
	if ev.store.rows(p.atom, forward, nodes, engine.ReachOpts{Budget: ev.bud, Levels: ev.ranked, Weight: ev.rankedWeight()}, out) {
		m.rows = m.rows[:k]
		return out
	}
	if m.at == nil {
		m.at = make([]int32, ev.ix.NumNodes())
	}
	for i, u := range nodes {
		if uint(u) < uint(len(m.at)) {
			m.at[u] = int32(k + i + 1)
		}
	}
	return out
}

// probe returns the nodes reachable from node through a path matching the
// edge's regex — targets when forward, sources otherwise — with their costs
// when ranked. The first miss of a direction adopts the store's complete
// table if it holds one. A search cut short by the budget is returned for the
// current unwinding but never memoized.
func (p *probeAtom) probe(node int, forward bool) ([]int, []int32) {
	m := p.memo(forward)
	if ws, ok := m.tab.get(node); ok { // inlined: the join's inner path
		return ws, nil
	}
	if r, ok := m.get(node); ok {
		return r.nodes, r.costs
	}
	if m.at == nil && p.adopt(forward) {
		ws, _ := m.tab.get(node)
		return ws, nil
	}
	r := p.fetch([]int{node}, forward)[0]
	return r.nodes, r.costs
}

// row is probe's node list, with ok false when the budget cut its search
// (the list may then miss nodes).
func (p *probeAtom) row(node int, forward bool) (nodes []int, ok bool) {
	nodes, _ = p.probe(node, forward)
	_, ok = p.memo(forward).get(node)
	return nodes, ok
}

// prefetch fills the memo for exactly the given (in-range) nodes by one store
// request, which searches the nodes it holds no row for in one multi-source
// sweep (engine.ReachBatchEx: one batch per 64 nodes) instead of one search
// each. A truncated sweep memoizes nothing. A complete table is adopted, and
// an unranked request for every node only files the rows, which complete the
// store's table, and adopts that: no memo row is built that the table hides.
func (p *probeAtom) prefetch(nodes []int, forward bool) {
	memo, ev := p.memo(forward), p.ev
	missing := nodes
	if len(memo.rows) > 0 {
		missing = nil // usually stays so: the frontier pass has been here
		for _, u := range nodes {
			if _, ok := memo.get(u); !ok {
				missing = append(missing, u)
			}
		}
	}
	if len(missing) == 0 || p.adopt(forward) {
		return
	}
	if !ev.ranked && len(missing) == ev.ix.NumNodes() {
		ev.store.rows(p.atom, forward, missing, engine.ReachOpts{Budget: ev.bud}, nil)
		if p.adopt(forward) || ev.bud.Canceled() {
			return
		}
	}
	p.fetch(missing, forward)
	p.adopt(forward) // the sweep may have completed the table
}

// support is the atom store's support bitset in place of a row per node: the
// sources when forward, else the targets. A sweep the budget cut leaves nil
// and sends the caller back to the rows, where the same budget unwinds it.
func (p *probeAtom) support(forward bool) []uint64 {
	memo := p.memo(forward)
	if memo.sup == nil {
		memo.sup, _ = p.ev.store.support(p.atom, !forward, p.ev.bud)
	}
	return memo.sup
}

func (p *probeAtom) forward(u int) ([]int, []int32)  { return p.probe(u, true) }
func (p *probeAtom) backward(v int) ([]int, []int32) { return p.probe(v, false) }

// scanNext walks every node: over a complete table the support's set bits,
// a lazy run polling its budget every 256. Else a materializing evaluation
// prefetches them all in one sweep; a lazy one walks escalating chunks (1, 4,
// 16, 64, then 256-wide) so the first row costs one small batch, while the
// geometric growth keeps the full drain within a constant factor of the sweep.
func (p *probeAtom) scanNext(forward bool, c *scanCursor) (int, []int, []int32, bool) {
	m, ev := p.memo(forward), p.ev
	if c.chunk == 0 {
		c.tab, c.chunk = p.adopt(forward), max(ev.db.NumNodes(), 1)
		if ev.lazy {
			c.chunk = 1
		}
	}
	if c.tab {
		u := nextBit(m.sup, c.next)
		if u < 0 || ev.lazy && c.k%256 == 0 && ev.bud.Canceled() {
			return 0, nil, nil, false
		}
		c.k, c.next = c.k+1, u+1
		ws, _ := m.tab.get(u)
		return u, ws, nil, true
	}
	for n := ev.db.NumNodes(); c.next < n; {
		if c.next == c.hi {
			if ev.lazy && ev.bud.Canceled() {
				return 0, nil, nil, false
			}
			c.hi = min(c.next+c.chunk, n)
			srcs := make([]int, 0, c.hi-c.next)
			for u := c.next; u < c.hi; u++ {
				srcs = append(srcs, u)
			}
			p.prefetch(srcs, forward)
			if c.chunk < 256 {
				c.chunk *= 4
			}
		}
		u := c.next
		c.next++
		if ws, ds := p.probe(u, forward); len(ws) > 0 {
			return u, ws, ds, true
		}
	}
	return 0, nil, nil, false
}

// nodes lists every node of the database in order, built once per
// evaluator, which one goroutine runs; nothing may modify it.
func (ev *evaluator) nodes() []int {
	if ev.all == nil {
		ev.all = make([]int, ev.ix.NumNodes())
		for u := range ev.all {
			ev.all[u] = u
		}
	}
	return ev.all
}

// compile builds the conjunct's plan over the lazily probed atoms: the
// ungrouped edges in JoinOrder (pre counts as bound), then the relation
// groups, most bound first: repeatedly the group with the most variables that
// pre, the atoms or an earlier group bind, ties in query order. This is the
// single ordering decision behind every evaluator entry point.
func (ev *evaluator) compile(pre map[string]int, bindAll bool) *plan {
	bound := boundSet(pre) // what pre, the atoms and the groups placed so far bind
	order := JoinOrder(ev.q.Pattern.Edges, ev.inGroup, bound)
	p := newPlan(ev.ranked, len(order)+len(ev.q.Groups))
	for _, st := range order {
		e := ev.q.Pattern.Edges[st.Edge]
		p.addAtom(&ev.atoms[st.Edge], e.From, e.To, ev.minCost(ev.atoms[st.Edge].atom))
	}
	if len(ev.q.Groups) > 0 {
		placed := make([]bool, len(ev.q.Groups))
		for range placed {
			gi := ev.mostBound(placed, bound)
			placed[gi] = true
			p.addGroup(ev, gi, bound)
		}
	}
	p.seal(ev.q.Pattern.Out, pre, bindAll)
	return p
}

// mostBound returns the unplaced group with the most distinct variables in
// bound, the first in query order on ties.
func (ev *evaluator) mostBound(placed []bool, bound map[string]bool) int {
	if len(placed) == 1 {
		return 0
	}
	best, bestN := 0, -1
	for gi, g := range ev.q.Groups {
		if placed[gi] {
			continue
		}
		var seen []string
		for _, ei := range g.Edges {
			e := ev.q.Pattern.Edges[ei]
			for _, z := range [2]string{e.From, e.To} {
				if bound[z] && !slices.Contains(seen, z) {
					seen = append(seen, z)
				}
			}
		}
		if len(seen) > bestN {
			best, bestN = gi, len(seen)
		}
	}
	return best
}

// minCost is the admissible lower bound of an atom's witness cost: 0 when
// its language accepts the empty word (a node can witness itself for free),
// otherwise the cheapest single traversal — 1 under unit cost, the minimum
// clamped symbol weight under a pluggable weight.
func (ev *evaluator) minCost(a *Atom) int32 {
	c := a.cache
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

// join starts s on p, a plan of ev's. A materializing evaluator fills its
// probe memos a frontier at a time first (frontier.go); the join then finds
// them there.
func (ev *evaluator) join(p *plan, s *search) {
	if !ev.lazy {
		ev.probeFrontiers(p)
	}
	s.reset(p, ev.bud)
}

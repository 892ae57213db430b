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

// probeAtom is the lazily probed atomSource of one pattern edge. Unranked,
// each direction reads the atom store's row table in place, complete or
// not, through the memo's copy of its header; a row the copy lacks is asked
// of the store (AtomStore.rows: a stored row, else one single-source search,
// filed), which hands out the header again. prefetch asks it for many nodes
// at once, which it searches through the multi-source kernel, and every
// driver that knows a set of nodes it is about to ask for — the scan, the
// frontier pass of a materializing run (frontier.go), the best-first
// driver's cohorts — goes through it. Ranked, the rows carry costs, and the
// memo holds those it searched for this evaluation alone (costed).
type probeAtom struct {
	ev       *evaluator
	atom     *Atom // the edge's label over the evaluation's Σ, held by the store
	fwd, rev probeMemo
}

// probeMemo is one direction's memo: unranked, a view of the store's table
// and the support filed with it; ranked, the rows with costs searched so
// far, found through a dense node index, so a lookup on the join's inner
// path is two loads and no hashing either way.
type probeMemo struct {
	tab   rowTable // a copy of the store's table header, read without the lock
	sup   []uint64 // the nodes with a non-empty row, once asked for (support) or filed with a complete table
	at    []int32  // ranked: [node] -> 1 + position in nodes; 0 = not probed
	nodes [][]int  // ranked: the rows searched, and their costs
	costs [][]int32
}

func (m *probeMemo) get(u int) ([]int, []int32, bool) {
	if ws, ok := m.tab.get(u); ok {
		return ws, nil, true
	}
	if uint(u) >= uint(len(m.at)) || m.at[u] == 0 {
		return nil, nil, false
	}
	return m.nodes[m.at[u]-1], m.costs[m.at[u]-1], true
}

// memo returns the memo of one search direction.
func (p *probeAtom) memo(forward bool) *probeMemo {
	if forward {
		return &p.fwd
	}
	return &p.rev
}

// fetch has the store's table hold the rows of nodes, searching those it
// lacks, and takes its header again, with the support filed for it. A
// search the budget cut returns its rows, for the nodes the table lacked in
// their order in nodes: they are kept nowhere, since a truncated list would
// poison later lookups.
func (p *probeAtom) fetch(nodes []int, forward bool) (cut [][]int) {
	m := p.memo(forward)
	t, sup, cut := p.ev.store.rows(p.atom, forward, nodes, p.ev.bud)
	if m.tab = t; sup != nil {
		m.sup = sup
	}
	return cut
}

// view has the memo take the store's table as it is, unless it views a
// complete one already, and reports whether it does: a scan then walks its
// support instead of every node. A ranked memo views no table.
func (p *probeAtom) view(forward bool) bool {
	m := p.memo(forward)
	if !p.ev.ranked && !m.tab.complete() {
		p.fetch(nil, forward)
	}
	return m.tab.complete()
}

// costed searches the rows of nodes with their costs for this ranked
// evaluation alone and returns them, indexed in the memo — allocating the
// index on first use — unless the budget cut the search (cut). An
// out-of-range node (which has no hits) is not indexed.
func (p *probeAtom) costed(nodes []int, forward bool) (rows [][]int, costs [][]int32, cut bool) {
	ev, m := p.ev, p.memo(forward)
	rows, costs, cut = ev.store.search(p.atom, forward, nodes, engine.ReachOpts{Budget: ev.bud, Levels: true, Weight: ev.weight})
	if cut {
		return rows, costs, true
	}
	if m.at == nil {
		m.at = make([]int32, ev.ix.NumNodes())
	}
	for i, u := range nodes {
		if uint(u) < uint(len(m.at)) {
			m.at[u] = int32(len(m.nodes) + i + 1)
		}
	}
	m.nodes, m.costs = append(m.nodes, rows...), append(m.costs, costs...)
	return rows, costs, false
}

// probe returns the nodes reachable from node through a path matching the
// edge's regex — targets when forward, sources otherwise — with their costs
// when ranked: from the view, else the ranked memo, else by one request to
// the store. A search cut short by the budget is returned for the current
// unwinding, ok false (the list may then miss nodes), but never memoized.
func (p *probeAtom) probe(node int, forward bool) (ws []int, ds []int32, ok bool) {
	m := p.memo(forward)
	if ws, ok := m.tab.get(node); ok { // inlined: the join's inner path
		return ws, nil, true
	}
	if ws, ds, ok := m.get(node); ok {
		return ws, ds, true
	}
	one := []int{node}
	if p.ev.ranked {
		rows, costs, cut := p.costed(one, forward)
		return rows[0], costs[0], !cut
	}
	if cut := p.fetch(one, forward); cut != nil {
		return cut[0], nil, false
	}
	ws, ok = m.tab.get(node)
	return ws, nil, ok
}

// prefetch has the memo hold exactly the given (in-range) nodes by one store
// request, which searches those it holds no row for in one multi-source
// sweep (engine.ReachBatchEx: one batch per 64 nodes) instead of one search
// each. A view of a complete table holds them all already; a truncated
// sweep memoizes nothing.
func (p *probeAtom) prefetch(nodes []int, forward bool) {
	m := p.memo(forward)
	if m.tab.complete() {
		return
	}
	missing := nodes
	for i, u := range nodes {
		if _, _, ok := m.get(u); ok { // usually none is: the first request of the direction
			missing = nodes[:i:i]
			for _, u := range nodes[i+1:] {
				if _, _, ok := m.get(u); !ok {
					missing = append(missing, u)
				}
			}
			break
		}
	}
	if len(missing) > 0 && p.ev.ranked {
		p.costed(missing, forward)
	} else if len(missing) > 0 {
		p.fetch(missing, forward)
	}
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

func (p *probeAtom) forward(u int) ([]int, []int32)  { ws, ds, _ := p.probe(u, true); return ws, ds }
func (p *probeAtom) backward(v int) ([]int, []int32) { ws, ds, _ := p.probe(v, false); return ws, ds }

// scanNext walks every node. It first takes the store's table as it is:
// over a complete one it walks the support's set bits, a lazy run polling
// its budget every 256. Else a materializing evaluation prefetches them all
// in one sweep, which completes the store's table unless it is ranked; a
// lazy one walks escalating chunks (1, 4, 16, 64, then 256-wide) so the
// first row costs one small batch, while the geometric growth keeps the full
// drain within a constant factor of the sweep.
func (p *probeAtom) scanNext(forward bool, c *scanCursor) (int, []int, []int32, bool) {
	m, ev := p.memo(forward), p.ev
	n := ev.db.NumNodes()
	if c.chunk == 0 {
		if c.chunk = max(n, 1); ev.lazy {
			c.chunk = 1
		}
		p.view(forward)
	}
	for c.next < n {
		if m.tab.complete() && m.sup != nil {
			u := nextBit(m.sup, c.next)
			if u < 0 || ev.lazy && c.k%256 == 0 && ev.bud.Canceled() {
				return 0, nil, nil, false
			}
			c.k, c.next = c.k+1, u+1
			ws, _ := m.tab.get(u)
			return u, ws, nil, true
		}
		if c.next == c.hi {
			if ev.lazy && ev.bud.Canceled() {
				return 0, nil, nil, false
			}
			c.hi = min(c.next+c.chunk, n)
			p.prefetch(ev.nodes()[c.next:c.hi], forward)
			if c.chunk < 256 {
				c.chunk *= 4
			}
			continue
		}
		u := c.next
		c.next++
		if ws, ds, _ := p.probe(u, forward); len(ws) > 0 {
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

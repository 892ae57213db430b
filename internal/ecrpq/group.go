package ecrpq

import (
	"slices"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Relation groups: the join step over a group's atoms (groupStep) and the
// synchronized-product searches that expand a group from a source tuple.
// There is one search per relation kind — the lock-step product for
// equality, the ⊥-padded product for general regular relations — and both
// run on groupScratch, whose frontier is a FIFO under unit cost (the product
// depth, i.e. the synchronized word length, is the cost) and a min-heap under
// a pluggable engine.Weight, where a longer word over cheap symbols can beat
// a shorter one.
//
// Step costs: the lock-step product consumes one shared symbol per step, so
// a step costs that symbol's clamped weight. The padded product advances
// each unfrozen component by its own column symbol in one synchronized step;
// the step costs the maximum clamped weight over the consuming columns.
// Under unit cost every step costs 1.
//
// A join with unbound group sources asks for an expansion from every source
// tuple it can bind, and nearly all of them die before their first step.
// Three things keep that cheap. A free source whose component has its other
// endpoint bound — on entry, or as a free source the step binds earlier, like
// the target of a definition that is its reference's source — ranges only
// over that endpoint's row of the component's own atom, and over the
// intersection of such rows when it has several (partner rows, fixed per
// step when the plan is compiled; the plan places the groups with the most
// bound variables first).
// Equality groups never reach the search from a tuple that cannot step: the
// lock-step product must leave all its sources on one symbol that every
// component automaton survives at its start state, so the step intersects the
// index's per-node out-symbol masks (graph.Index.OutSyms) with the mask of
// those symbols as it binds the sources and abandons a subtree the moment
// the intersection is empty. And a search that does run allocates nothing of
// its own: configurations, end tuples and memoized sources are fixed-width
// rows of []int32 slabs found through open-addressed tables
// (pattern.RowTable), all owned by the group's scratch and reset between
// expansions by the list of slots the last one touched.

// groupStep is one relation group of a plan: src and tgt hold, per group
// component, the slots of the component atom's endpoints. It is the plan's
// steps at levels 0 … len(free): level l < len(free) binds the free source
// slot free[l], the last expands the group from the bound source tuple.
type groupStep struct {
	ev       *evaluator
	sc       *groupScratch
	src, tgt []int32

	// free lists the source slots no earlier step (nor pre) binds, in the
	// order the levels bind them, and partners[l] the atom rows free[l] must
	// lie in, read off endpoints bound on entry or at an earlier level. Both
	// are fixed by the plan order.
	free     []int32
	partners [][]partner
	// meet holds the intersection of free[l]'s partner rows, when it has more
	// than one, in its l-th window of NumNodes entries; nil when no slot has.
	meet []int

	// The expansion step's end tuples still to walk, [ti, to), and the target
	// slots it binds: a plan visits a step in one place at a time, so they
	// live here, with the source tuple's buffer.
	ti, to int32
	srcBuf []int32
	fresh  []int32
	// seeds[l] is the set of first symbols still possible once l free sources
	// are bound, SymWords words each (seeded groups only).
	seeds []uint64
	// skipped counts the source tuples the seeds ruled out without a search,
	// hence without a budget poll: admits polls once per 1 024 of them (a
	// skip is a few AND words, a poll the work of dozens).
	skipped int
}

// partner is an atom row a free source slot lies in — component k's
// endpoints are a pair of k's own atom: the row of the node at slot near, its
// targets when forward (the slot is k's target), else its sources.
type partner struct {
	atom    *probeAtom
	near    int32
	forward bool
}

// addGroup appends the step of ev's relation group gi, given the variables
// bound before it, and adds the group's variables to bound. A free slot's
// partners are the components whose other endpoint is bound or an earlier
// free slot; a self-loop is never its own partner.
func (p *plan) addGroup(ev *evaluator, gi int, bound map[string]bool) {
	g := &groupStep{ev: ev, sc: ev.gscratch[gi]}
	edges := ev.q.Groups[gi].Edges
	for _, ei := range edges {
		e := ev.q.Pattern.Edges[ei]
		s := p.slot(e.From)
		g.src, g.tgt = append(g.src, s), append(g.tgt, p.slot(e.To))
		if !bound[e.From] && !slices.Contains(g.free, s) {
			g.free = append(g.free, s)
		}
	}
	g.partners = make([][]partner, len(g.free))
	for l, s := range g.free {
		// bound on entry, or a free slot bound at an earlier level
		known := func(z int32) bool { return bound[p.vars[z]] || slices.Contains(g.free[:l], z) }
		for k, ei := range edges {
			if g.src[k] == s && known(g.tgt[k]) {
				g.partners[l] = append(g.partners[l], partner{&ev.atoms[ei], g.tgt[k], false})
			}
			if g.tgt[k] == s && known(g.src[k]) {
				g.partners[l] = append(g.partners[l], partner{&ev.atoms[ei], g.src[k], true})
			}
		}
		if len(g.partners[l]) > 1 && g.meet == nil {
			g.meet = make([]int, len(g.free)*ev.db.NumNodes())
		}
	}
	for k := range edges {
		bound[p.vars[g.src[k]]], bound[p.vars[g.tgt[k]]] = true, true
	}
	if g.sc.seeded() {
		g.seeds = make([]uint64, (len(g.free)+1)*ev.ix.SymWords())
	}
	for l := range len(g.free) + 1 {
		p.steps = append(p.steps, step{grp: g, lvl: l})
	}
}

// open points f at the candidates of level l under the assignment a: each
// free source slot ranges in node order over its partner row, the
// intersection of its partner rows when it has several, or every node when
// it has none; the expansion level walks the end tuples from the bound
// source tuple, each consistent with the already bound target slots one
// binding, at the cost of its synchronized word when ranked. It reports
// false when the budget cut a partner row or the expansion. The partner rows
// are sorted, so their sorted-merge intersection keeps the node order of the
// plain loop.
func (g *groupStep) open(f *frame, l int, a []int32) bool {
	g.ti, g.to, g.fresh = 0, 0, g.fresh[:0]
	if w := g.ev.ix.SymWords(); g.seeds != nil {
		// The symbols every component survives, narrowed by the sources bound
		// so far: read off a, not left by the level before, for the best-first
		// driver opens the levels of different assignments in turn.
		seed := g.seeds[l*w : (l+1)*w]
		copy(seed, g.sc.startSyms)
		for _, s := range g.src {
			if a[s] >= 0 && !andInto(seed, seed, g.ev.ix.OutSyms(int(a[s]))) {
				return true
			}
		}
	}
	if l == len(g.free) {
		src := g.srcBuf[:0]
		for _, s := range g.src {
			src = append(src, a[s])
		}
		for _, y := range g.tgt {
			if a[y] < 0 {
				g.fresh = append(g.fresh, y)
			}
		}
		g.srcBuf = src
		exp := g.sc.expand(g.ev, src)
		g.ti, g.to = exp.from, exp.to
		return !g.sc.cut // the budget canceled: every further source tuple would be cut the same
	}
	nodes, row := g.ev.db.NumNodes(), g.ev.nodes()
	for i, pt := range g.partners[l] {
		r, ok := pt.atom.row(int(a[pt.near]), pt.forward)
		if !ok {
			g.sc.cut = true
			return false
		}
		if i > 0 {
			r = meet(g.meet[l*nodes:l*nodes:(l+1)*nodes], row, r)
		}
		if row = r; len(r) == 0 {
			break
		}
	}
	f.list(g.free[l], true, row, nil)
	return true
}

// admits reports whether binding u at level l leaves a first symbol every
// source bound so far survives, kept as seeds[l+1]. When it does not, the
// budget is polled once per 1 024 such skips, and a spent one sets sc.cut.
func (g *groupStep) admits(l, u int) bool {
	w := g.ev.ix.SymWords()
	if g.seeds == nil || andInto(g.seeds[(l+1)*w:(l+2)*w], g.seeds[l*w:(l+1)*w], g.ev.ix.OutSyms(u)) {
		return true
	}
	// No symbol leaves every source bound so far: the product dies at its start.
	if g.skipped++; g.skipped%1024 == 0 && g.ev.bud.Canceled() {
		g.sc.cut = true
	}
	return false
}

// meet appends the nodes both sorted rows hold to dst, in order; x may share
// dst's array.
func meet(dst, x, y []int) []int {
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			dst = append(dst, x[i])
			i, j = i+1, j+1
		}
	}
	return dst
}

// andInto stores x AND y in dst and reports whether any bit survived.
func andInto(dst, x, y []uint64) bool {
	var any uint64
	for i := range dst {
		dst[i] = x[i] & y[i]
		any |= dst[i]
	}
	return any != 0
}

// nextEnd binds the next end tuple of the expansion consistent with the bound
// target slots.
func (g *groupStep) nextEnd(a []int32) (int32, bool) {
	for g.ti < g.to {
		ti := g.ti
		g.ti++
		for _, y := range g.fresh {
			a[y] = -1
		}
		end, match := g.sc.end(ti), true
		for j, y := range g.tgt {
			if a[y] < 0 {
				a[y] = end[j]
			} else if a[y] != end[j] {
				match = false
				break
			}
		}
		if match {
			return costAt(g.sc.deps, int(ti)), true
		}
	}
	for _, y := range g.fresh {
		a[y] = -1
	}
	return 0, false
}

// groupExp is one memoized group expansion: the rows [from, to) of the
// group's end-tuple slab, in the order the search produced them, with — when
// the evaluator is ranked — the cost (synchronized word length or weight) at
// which each was first produced in the parallel deps rows.
type groupExp struct {
	from, to int32
}

// expand returns all end tuples reachable from the given source tuple under
// the group's synchronized semantics, memoized. An expansion the budget cut
// short sets sc.cut and is not memoized.
func (sc *groupScratch) expand(ev *evaluator, src []int32) groupExp {
	row, slot := sc.memo.Find(sc.srcs, sc.s, src)
	if row >= 0 {
		return sc.exps[row]
	}
	exp := sc.search(ev, src)
	if !sc.cut { // a search next did not cut is complete
		sc.srcs = append(sc.srcs, src...)
		sc.exps = append(sc.exps, exp)
		sc.memo.Set(sc.srcs, sc.s, slot, int32(len(sc.exps)-1))
	}
	return exp
}

// liveRow is what the lock-step search needs to know about one set id of a
// component automaton, resolved against the index's symbol table: the
// successor per symbol id (automata.Dead where the run dies), the symbol ids
// it survives in ascending order, and whether it accepts.
type liveRow struct {
	next  []int32
	live  []int32
	final bool
}

// liveRows resolves a component's set ids on first use, once per evaluator,
// so the search's inner loop visits only the symbols a state survives and
// never takes the shared SubsetCache's lock.
type liveRows struct {
	c    *automata.SubsetCache
	rows []liveRow // [set id]; next == nil: not resolved
}

func (l *liveRows) row(ix *graph.Index, id int32) liveRow {
	for int(id) >= len(l.rows) {
		l.rows = append(l.rows, liveRow{})
	}
	r := &l.rows[id]
	if r.next == nil {
		n := ix.NumSyms()
		buf := make([]int32, n, 2*n)
		for s := int32(0); s < int32(n); s++ {
			if buf[s] = l.c.Step(id, int32(ix.Sym(s))); buf[s] != automata.Dead {
				buf = append(buf, s)
			}
		}
		*r = liveRow{next: buf[:n:n], live: buf[n:], final: l.c.Final(id)}
	}
	return *r
}

// groupScratch is everything the expansions of one group share: the
// component automata, the memo of finished expansions, and the state of the
// one search in progress (an evaluator runs one expansion at a time). Nothing
// here is allocated per expansion; a search resets what the previous one
// touched.
//
// A configuration is a row of cfgs: per component the graph node ([:s]) and
// the edge automaton's set id ([s:2s]), plus — for NFARelation groups — the
// relation automaton's set id and the mask of frozen (⊥-padded) components
// in two halves. Rows are appended in push order. Under unit cost that order
// is the BFS order, so the frontier is just a cursor over the slab and the
// first visit of a configuration is its cheapest; under a weight the frontier
// is a (cost, push order) min-heap with lazy deletion — pops are
// nondecreasing in cost, so the first settle of an accepting configuration
// still carries the minimal cost of its end tuple, and equal costs pop in
// push order, which keeps the output sequence deterministic and identical to
// the FIFO's under the unit weight.
//
// A witness search (witness.go) is the same search asked for one end tuple,
// want: it stops at the first — cheapest — accepting configuration over it
// and, so that the words can be read back from there, keeps two more columns
// per configuration: the row it was pushed from (parent, -1 at the source)
// and what the step consumed (via: the symbol id in an equality group, the
// relation automaton's label in an NFARelation group, whose decoded columns
// are the components' symbols or ⊥). No other search carries them.
type groupScratch struct {
	s    int          // arity
	w    int          // configuration width: 2s, or 2s+3 with a relation
	rel  *NFARelation // nil for equality groups
	wsym []int32      // clamped cost per graph symbol under the ranked weight; nil = unit cost

	caches []*automata.SubsetCache // per component
	live   []liveRows              // per component (equality groups)

	// Seed of equality groups: the symbol ids every component survives at its
	// start state, and whether every start state accepts (the source tuple is
	// then its own end tuple and no mask may skip it).
	startSyms  []uint64
	startFinal bool

	// The memo: source tuples (rows of srcs) and their expansions, which are
	// row ranges of ends; deps runs parallel to ends when ranked.
	srcs []int32
	exps []groupExp
	memo pattern.RowTable
	ends []int32
	deps []int32

	// The search in progress.
	cfgs  []int32
	cost  []int32          // per configuration
	stale []bool           // a cheaper path reached the configuration after this push (weighted only)
	best  pattern.RowTable // configuration -> cheapest row pushed so far
	seen  pattern.RowTable // end tuples of this expansion
	head  int              // FIFO cursor
	heap  wHeap            // weighted frontier
	cur   int              // the row next returned last; -1 before the first pop
	pops  int              // over all searches of the evaluation, so that small ones share a budget poll
	cut   bool             // a poll saw the budget canceled; it stays so

	// The witness search in progress (want != nil).
	want        []int32
	hit         int // the accepting row over want; -1: none yet
	parent, via []int32

	// The step under construction.
	row      []int32   // the candidate configuration
	rows     []liveRow // per component: the popped configuration's resolved state
	opts     [][]int32 // per component: candidate next nodes
	selfOpts []int32   // backing of a frozen component's single option
	odo      []int     // pushProduct's position in opts
}

func newGroupScratch(ev *evaluator, g Group) *groupScratch {
	s := len(g.Edges)
	sc := &groupScratch{s: s, w: 2 * s,
		caches: make([]*automata.SubsetCache, s), live: make([]liveRows, s), rows: make([]liveRow, s),
		opts: make([][]int32, s), selfOpts: make([]int32, s), odo: make([]int, s)}
	if sc.rel, _ = g.Rel.(*NFARelation); sc.rel != nil {
		sc.w += 3
	}
	sc.row = make([]int32, sc.w)
	for i, ei := range g.Edges {
		sc.caches[i] = ev.atoms[ei].atom.cache
		sc.live[i].c = sc.caches[i]
	}
	if ev.rankedWeight() != nil {
		sc.wsym = make([]int32, ev.ix.NumSyms())
		for sy := range sc.wsym {
			sc.wsym[sy] = ev.symCost(ev.ix.Sym(int32(sy)))
		}
	}
	if sc.rel == nil {
		sc.startSyms = make([]uint64, ev.ix.SymWords())
		sc.startFinal = true
		for i := range sc.live {
			r := sc.live[i].row(ev.ix, sc.caches[i].Start())
			sc.startFinal = sc.startFinal && r.final
			mask := make([]uint64, len(sc.startSyms))
			for _, sy := range r.live {
				mask[sy/64] |= 1 << (uint(sy) % 64)
			}
			if i == 0 {
				copy(sc.startSyms, mask)
			} else {
				andInto(sc.startSyms, sc.startSyms, mask)
			}
		}
	}
	return sc
}

// seeded reports whether the step may skip source tuples by the symbol masks.
func (sc *groupScratch) seeded() bool { return sc.rel == nil && !sc.startFinal }

// end returns the i-th row of the end-tuple slab.
func (sc *groupScratch) end(i int32) []int32 { return sc.ends[int(i)*sc.s : int(i+1)*sc.s] }

// search runs the group's product search from the source tuple src.
func (sc *groupScratch) search(ev *evaluator, src []int32) groupExp {
	sc.cfgs, sc.cost, sc.stale, sc.heap = sc.cfgs[:0], sc.cost[:0], sc.stale[:0], sc.heap[:0]
	sc.best.Reset()
	sc.seen.Reset()
	sc.head, sc.cur = 0, -1
	clear(sc.row)
	for i, c := range sc.caches {
		sc.row[i], sc.row[sc.s+i] = src[i], c.Start()
	}
	if sc.rel != nil {
		sc.row[2*sc.s] = sc.rel.subsetCache().Start()
	}
	from := int32(len(sc.ends) / sc.s)
	sc.push(0, -1)
	if sc.rel != nil {
		sc.expandNFARel(ev)
	} else {
		sc.expandEquality(ev)
	}
	return groupExp{from: from, to: int32(len(sc.ends) / sc.s)}
}

// push queues the candidate configuration sc.row, reached from row sc.cur by
// a step that consumed via, unless it was already reached at most as
// expensively.
func (sc *groupScratch) push(cost, via int32) {
	old, slot := sc.best.Find(sc.cfgs, sc.w, sc.row)
	if old >= 0 {
		if sc.cost[old] <= cost {
			return
		}
		sc.stale[old] = true
	}
	idx := len(sc.cost)
	sc.cfgs = append(sc.cfgs, sc.row...)
	sc.cost = append(sc.cost, cost)
	sc.stale = append(sc.stale, false)
	if sc.want != nil {
		sc.parent, sc.via = append(sc.parent, int32(sc.cur)), append(sc.via, via)
	}
	sc.best.Set(sc.cfgs, sc.w, slot, int32(idx))
	if sc.wsym != nil {
		sc.heap.push(wItem{cost: cost, idx: idx})
	}
}

// pushProduct pushes sc.row once per element of the cartesian product of the
// node options, the last component varying fastest.
func (sc *groupScratch) pushProduct(cost, via int32) {
	for i, o := range sc.opts {
		sc.odo[i], sc.row[i] = 0, o[0]
	}
	for {
		sc.push(cost, via)
		i := sc.s - 1
		for ; i >= 0; i-- {
			if sc.odo[i]++; sc.odo[i] < len(sc.opts[i]) {
				sc.row[i] = sc.opts[i][sc.odo[i]]
				break
			}
			sc.odo[i], sc.row[i] = 0, sc.opts[i][0]
		}
		if i < 0 {
			return
		}
	}
}

// next pops the cheapest unexpanded configuration; ok is false when the
// search is exhausted or the budget, polled every 256 pops, canceled (sc.cut).
// The returned row stays readable across pushes: a slab that grows leaves the
// old array intact.
func (sc *groupScratch) next(bud *engine.Budget) (cfg []int32, cost int32, ok bool) {
	for {
		if sc.pops++; sc.pops%256 == 0 && bud.Canceled() {
			sc.cut = true
			return nil, 0, false
		}
		cur := sc.head
		if sc.wsym == nil {
			if cur == len(sc.cost) {
				return nil, 0, false
			}
			sc.head++
		} else {
			if len(sc.heap) == 0 {
				return nil, 0, false
			}
			if cur = sc.heap.pop().idx; sc.stale[cur] {
				continue
			}
		}
		sc.cur = cur
		return sc.cfgs[cur*sc.w : (cur+1)*sc.w], sc.cost[cur], true
	}
}

// accept records an accepting configuration's end tuple at its first —
// cheapest — appearance, with its cost when ranked. It reports false when the
// search is over: a witness search has reached the end tuple it wants, and
// records the row instead.
func (sc *groupScratch) accept(nodes []int32, cost int32, ranked bool) bool {
	if sc.want != nil {
		if !slices.Equal(nodes, sc.want) {
			return true
		}
		sc.hit = sc.cur
		return false
	}
	row, slot := sc.seen.Find(sc.ends, sc.s, nodes)
	if row >= 0 {
		return true
	}
	sc.ends = append(sc.ends, nodes...)
	sc.seen.Set(sc.ends, sc.s, slot, int32(len(sc.ends)/sc.s-1))
	if ranked {
		sc.deps = append(sc.deps, cost)
	}
	return true
}

// expandEquality explores the lock-step product: all components consume the
// same symbol in every step; acceptance requires every component NFA to
// accept simultaneously (equal words have equal length). The product runs
// over the components' resolved live rows and label-indexed adjacency spans.
func (sc *groupScratch) expandEquality(ev *evaluator) {
	ix, s := ev.ix, sc.s
	for {
		cfg, cost, ok := sc.next(ev.bud)
		if !ok {
			return
		}
		nodes, ids := cfg[:s], cfg[s:]
		allFinal := true
		for i := range sc.live {
			sc.rows[i] = sc.live[i].row(ix, ids[i])
			allFinal = allFinal && sc.rows[i].final
		}
		if allFinal && !sc.accept(nodes, cost, ev.ranked) {
			return
		}
	syms:
		for _, sy := range sc.rows[0].live {
			for i, r := range sc.rows {
				if sc.row[s+i] = r.next[sy]; sc.row[s+i] == automata.Dead {
					continue syms
				}
				// candidate next nodes per component, from the label index
				if sc.opts[i] = ix.OutByID(int(nodes[i]), sy); len(sc.opts[i]) == 0 {
					continue syms
				}
			}
			nc := cost + 1
			if sc.wsym != nil {
				nc = cost + sc.wsym[sy]
			}
			sc.pushProduct(nc, sy)
		}
	}
}

// expandNFARel explores the padded product driven by the relation NFA:
// components with a ⊥ column are frozen (their word has ended, so their
// edge NFA must accept at freeze time); acceptance requires the relation
// NFA to accept and every unfrozen component NFA to accept. Component and
// relation automata run through their interned subset caches.
func (sc *groupScratch) expandNFARel(ev *evaluator) {
	ix, rel, s := ev.ix, sc.rel, sc.s
	rc := rel.subsetCache()
	labels := rel.labelSet()
	for {
		cfg, cost, ok := sc.next(ev.bud)
		if !ok {
			return
		}
		nodes, ids, rid := cfg[:s], cfg[s:2*s], cfg[2*s]
		frozen := uint64(uint32(cfg[2*s+1])) | uint64(uint32(cfg[2*s+2]))<<32
		accept := rc.Final(rid)
		for i, c := range sc.caches {
			if !accept {
				break
			}
			accept = frozen&(1<<uint(i)) != 0 || c.Final(ids[i])
		}
		if accept && !sc.accept(nodes, cost, ev.ranked) {
			return
		}
		for _, code := range labels {
			rnext := rc.Step(rid, code)
			if rnext == automata.Dead {
				continue
			}
			tuple := rel.codec.decode(code)
			mask := frozen
			ok := true
			stepCost := int32(0)
			for i, c := range sc.caches {
				if tuple[i] == Bottom {
					// component i is (or becomes) frozen; its word must be
					// complete, i.e. its NFA accepting at freeze time
					if mask&(1<<uint(i)) == 0 {
						if !c.Final(ids[i]) {
							ok = false
							break
						}
						mask |= 1 << uint(i)
					}
					sc.row[s+i] = ids[i]
					sc.selfOpts[i] = nodes[i]
					sc.opts[i] = sc.selfOpts[i : i+1]
					continue
				}
				if mask&(1<<uint(i)) != 0 {
					ok = false // symbol after ⊥ in the same column
					break
				}
				if sc.row[s+i] = c.Step(ids[i], int32(tuple[i])); sc.row[s+i] == automata.Dead {
					ok = false
					break
				}
				if sc.opts[i] = ix.OutByLabel(int(nodes[i]), tuple[i]); len(sc.opts[i]) == 0 {
					ok = false
					break
				}
				if sc.wsym != nil {
					stepCost = max(stepCost, ev.symCost(tuple[i]))
				}
			}
			if !ok {
				continue
			}
			if sc.wsym == nil {
				stepCost = 1
			}
			sc.row[2*s], sc.row[2*s+1], sc.row[2*s+2] = rnext, int32(uint32(mask)), int32(uint32(mask>>32))
			sc.pushProduct(cost+stepCost, code)
		}
	}
}

// symCost is the clamped per-label cost under the evaluator's weight.
func (ev *evaluator) symCost(label rune) int32 {
	return max(ev.weight(label), 0)
}

// wItem / wHeap: a minimal binary min-heap on (cost, idx). idx is the
// insertion sequence: equal-cost entries pop in FIFO order, which keeps every
// search built on the heap deterministic. For the product search it is also
// the entry's row in a slab that only grows; any-k recycles its slab: ref.
type wItem struct {
	cost int32
	ref  int32
	idx  int
}

func (a wItem) before(b wItem) bool {
	return a.cost < b.cost || (a.cost == b.cost && a.idx < b.idx)
}

type wHeap []wItem

func (h *wHeap) push(x wItem) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *wHeap) pop() wItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && s[l].before(s[m]) {
			m = l
		}
		if r < last && s[r].before(s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

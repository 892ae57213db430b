package ecrpq

import (
	"encoding/binary"

	"cxrpq/internal/automata"
)

// Relation groups: the join step over a group's atoms (groupStep) and the
// synchronized-product searches that expand a group from a source tuple.
// There is one search per relation kind — the lock-step product for
// equality, the ⊥-padded product for general regular relations — and both
// run on prodSearch, whose frontier is a FIFO under unit cost (the product
// depth, i.e. the synchronized word length, is the cost) and a min-heap under
// a pluggable engine.Weight, where a longer word over cheap symbols can beat
// a shorter one.
//
// Step costs: the lock-step product consumes one shared symbol per step, so
// a step costs that symbol's clamped weight. The padded product advances
// each unfrozen component by its own column symbol in one synchronized step;
// the step costs the maximum clamped weight over the consuming columns.
// Under unit cost every step costs 1.

// groupStep is the plan step of one relation group: src and tgt hold, per
// group component, the slots of the component atom's endpoints.
type groupStep struct {
	ev       *evaluator
	gi       int
	src, tgt []int32

	// Scratch of bindSrc, which runs once per source tuple — quadratically
	// often when two sources are unbound. A plan visits a step in one place
	// at a time, so the buffers are never shared.
	srcBuf []int
	fresh  []int32
}

// addGroup appends the step of ev's relation group gi.
func (p *plan) addGroup(ev *evaluator, gi int) {
	g := &groupStep{ev: ev, gi: gi}
	for _, ei := range ev.q.Groups[gi].Edges {
		e := ev.q.Pattern.Edges[ei]
		g.src = append(g.src, p.slot(e.From))
		g.tgt = append(g.tgt, p.slot(e.To))
	}
	p.steps = append(p.steps, step{grp: g})
}

// bindings enumerates the group's satisfying bindings (the step.bindings
// contract): unbound source slots range over every node, the group is
// expanded from each source tuple, and every end tuple consistent with the
// already bound target slots is one binding, at the cost of its synchronized
// word when ranked.
func (g *groupStep) bindings(a []int32, cont func(int32) bool) bool {
	var free []int32
	for _, s := range g.src {
		if a[s] < 0 {
			a[s] = 0 // claimed; bindSrc assigns the real values
			free = append(free, s)
		}
	}
	ok := g.bindSrc(a, free, cont)
	for _, s := range free {
		a[s] = -1
	}
	return ok
}

func (g *groupStep) bindSrc(a, free []int32, cont func(int32) bool) bool {
	if len(free) > 0 {
		for u := 0; u < g.ev.db.NumNodes(); u++ {
			a[free[0]] = int32(u)
			if !g.bindSrc(a, free[1:], cont) {
				return false
			}
		}
		return true
	}
	src := g.srcBuf[:0]
	for _, s := range g.src {
		src = append(src, int(a[s]))
	}
	fresh := g.fresh[:0] // target slots this step binds
	for _, y := range g.tgt {
		if a[y] < 0 {
			fresh = append(fresh, y)
		}
	}
	g.srcBuf, g.fresh = src, fresh
	exp := g.ev.expandGroup(g.gi, src)
	ok := true
	for ti, end := range exp.ends {
		match := true
		for j, y := range g.tgt {
			if a[y] < 0 {
				a[y] = int32(end[j])
			} else if a[y] != int32(end[j]) {
				match = false
				break
			}
		}
		if match {
			ok = cont(costAt(exp.deps, ti))
		}
		for _, y := range fresh {
			a[y] = -1
		}
		if !ok {
			break
		}
	}
	return ok
}

// groupExp is one memoized group expansion: the reachable end tuples and —
// when the evaluator is ranked — the cost (synchronized word length or
// weight) at which each was first produced.
type groupExp struct {
	ends [][]int
	deps []int32
}

// intsKey encodes an integer tuple as a compact binary map key.
func intsKey[T interface{ ~int | ~int32 }](xs []T) string {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	return string(buf)
}

// expandGroup returns all end tuples reachable from the given source tuple
// under the group's synchronized semantics (plus, when ranked, the cost each
// first appeared at), memoized. Expansions cut short by the budget are
// returned for the current unwinding but not memoized.
func (ev *evaluator) expandGroup(gi int, src []int) groupExp {
	k := intsKey(src)
	if res, ok := ev.gmemo[gi][k]; ok {
		return res
	}
	ps := ev.newProdSearch(gi, src)
	if ps.rel != nil {
		ps.expandNFARel()
	} else {
		ps.expandEquality()
	}
	if !ev.bud.Canceled() {
		ev.gmemo[gi][k] = ps.out
	}
	return ps.out
}

// prodState is one configuration of a synchronized product: per component
// the graph node (cfg[:s]) and the edge automaton's set id (cfg[s:]), plus —
// for NFARelation groups — the relation automaton's set id and the mask of
// frozen (⊥-padded) components.
type prodState struct {
	cfg   []int32
	mask  uint64
	rid   int32
	cost  int32
	stale bool // a cheaper path reached the configuration after this push (weighted only)
}

// prodSearch is the exploration state shared by the two product searches.
// Configurations are appended to states in push order. Under unit cost that
// order is the BFS order, so the frontier is just a cursor over the slab and
// the first visit of a configuration is its cheapest; under a weight the
// frontier is a (cost, push order) min-heap with lazy deletion — pops are
// nondecreasing in cost, so the first settle of an accepting configuration
// still carries the minimal cost of its end tuple, and equal costs pop in
// push order, which keeps the output sequence deterministic and identical to
// the FIFO's under the unit weight.
type prodSearch struct {
	ev *evaluator
	*groupScratch
	s      int          // arity
	rel    *NFARelation // nil for equality groups
	states []prodState
	best   map[string]int32 // configuration key -> cheapest state pushed so far
	head   int              // FIFO cursor
	heap   wHeap            // weighted frontier (wsym != nil)
	pops   int
	out    groupExp
	ends   map[string]bool // end tuples already in out
}

// groupScratch is what every expansion of one group needs and none keeps:
// the component automata and the buffers of the step under construction.
// Most expansions of a join die at the source (no synchronized step exists),
// and a group with unbound sources is expanded from every node tuple, so the
// per-expansion set-up allocates as little as it can; an evaluator runs one
// expansion at a time, so one scratch per group is enough.
type groupScratch struct {
	caches   []*automata.SubsetCache // per component
	nextIDs  []int32                 // per component: set id after the step
	opts     [][]int32               // per component: candidate next nodes
	selfOpts []int32                 // backing of a frozen component's single option
	kbuf     []byte
	wsym     []int32 // clamped cost per graph symbol under the ranked weight; nil = unit cost
}

func newGroupScratch(ev *evaluator, g Group) *groupScratch {
	s := len(g.Edges)
	sc := &groupScratch{caches: make([]*automata.SubsetCache, s), nextIDs: make([]int32, s),
		opts: make([][]int32, s), selfOpts: make([]int32, s)}
	for i, ei := range g.Edges {
		sc.caches[i] = ev.atoms[ei].ent.cache
	}
	if ev.rankedWeight() != nil {
		sc.wsym = make([]int32, ev.ix.NumSyms())
		for sy := range sc.wsym {
			sc.wsym[sy] = ev.symCost(ev.ix.Sym(int32(sy)))
		}
	}
	return sc
}

// newProdSearch starts a search of group gi from the source tuple src.
func (ev *evaluator) newProdSearch(gi int, src []int) *prodSearch {
	ps := &prodSearch{ev: ev, groupScratch: ev.gscratch[gi], s: len(src)}
	cfg := make([]int32, 2*ps.s)
	for i, c := range ps.caches {
		cfg[i], cfg[ps.s+i] = int32(src[i]), c.Start()
	}
	var rid int32
	if ps.rel, _ = ev.q.Groups[gi].Rel.(*NFARelation); ps.rel != nil {
		rid = ps.rel.subsetCache().Start()
	}
	ps.enqueue(prodState{cfg: cfg, rid: rid})
	return ps
}

// key encodes a configuration into the scratch key buffer.
func (ps *prodSearch) key(nodes, ids []int32, rid int32, mask uint64) []byte {
	b := ps.kbuf[:0]
	for i := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(nodes[i]))
		b = binary.LittleEndian.AppendUint32(b, uint32(ids[i]))
	}
	if ps.rel != nil {
		b = binary.LittleEndian.AppendUint32(b, uint32(rid))
		b = binary.LittleEndian.AppendUint64(b, mask)
	}
	ps.kbuf = b
	return b
}

func (ps *prodSearch) enqueue(st prodState) {
	ps.states = append(ps.states, st)
	if ps.wsym != nil {
		ps.heap.push(wItem{cost: st.cost, idx: len(ps.states) - 1})
	}
}

// push queues the configuration unless it was already reached at most as
// expensively. nodes and ids are copied.
func (ps *prodSearch) push(nodes, ids []int32, rid int32, mask uint64, cost int32) {
	if ps.best == nil {
		// The index starts with the first step: a search that dies at its
		// start configuration never pays for it.
		st := ps.states[0]
		ps.best = map[string]int32{string(ps.key(st.cfg[:ps.s], st.cfg[ps.s:], st.rid, st.mask)): 0}
	}
	key := ps.key(nodes, ids, rid, mask)
	if old, ok := ps.best[string(key)]; ok {
		if ps.states[old].cost <= cost {
			return
		}
		ps.states[old].stale = true
	}
	ps.best[string(key)] = int32(len(ps.states))
	cfg := make([]int32, 2*ps.s)
	copy(cfg, nodes)
	copy(cfg[ps.s:], ids)
	ps.enqueue(prodState{cfg: cfg, rid: rid, mask: mask, cost: cost})
}

// next pops the cheapest unexpanded configuration as its node and set-id
// tuples; ok is false when the search is exhausted or the budget, polled
// every 256 pops, canceled.
func (ps *prodSearch) next() (cur prodState, nodes, ids []int32, ok bool) {
	for {
		if ps.pops++; ps.pops%256 == 0 && ps.ev.bud.Canceled() {
			return cur, nil, nil, false
		}
		if ps.wsym == nil {
			if ps.head == len(ps.states) {
				return cur, nil, nil, false
			}
			cur = ps.states[ps.head]
			ps.head++
		} else {
			if len(ps.heap) == 0 {
				return cur, nil, nil, false
			}
			if cur = ps.states[ps.heap.pop().idx]; cur.stale {
				continue
			}
		}
		return cur, cur.cfg[:ps.s], cur.cfg[ps.s:], true
	}
}

// accept records an accepting configuration's end tuple at its first —
// cheapest — appearance.
func (ps *prodSearch) accept(nodes []int32, cost int32) {
	k := intsKey(nodes)
	if ps.ends[k] {
		return
	}
	if ps.ends == nil {
		ps.ends = map[string]bool{}
	}
	ps.ends[k] = true
	end := make([]int, len(nodes))
	for i, x := range nodes {
		end[i] = int(x)
	}
	ps.out.ends = append(ps.out.ends, end)
	if ps.ev.ranked {
		ps.out.deps = append(ps.out.deps, cost)
	}
}

// expandEquality explores the lock-step product: all components consume the
// same symbol in every step; acceptance requires every component NFA to
// accept simultaneously (equal words have equal length). The product runs
// over interned DFA set ids and label-indexed adjacency spans.
func (ps *prodSearch) expandEquality() {
	ix := ps.ev.ix
	nextIDs, opts := ps.nextIDs, ps.opts
	for {
		cur, nodes, ids, ok := ps.next()
		if !ok {
			return
		}
		allFinal := true
		for i, c := range ps.caches {
			if !c.Final(ids[i]) {
				allFinal = false
				break
			}
		}
		if allFinal {
			ps.accept(nodes, cur.cost)
		}
		for sy := int32(0); sy < int32(ix.NumSyms()); sy++ {
			sym := int32(ix.Sym(sy))
			ok := true
			for i, c := range ps.caches {
				// candidate next nodes per component, from the label index
				opts[i] = ix.OutByID(int(nodes[i]), sy)
				if len(opts[i]) == 0 {
					ok = false
					break
				}
				nextIDs[i] = c.Step(ids[i], sym)
				if nextIDs[i] == automata.Dead {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			nc := cur.cost + 1
			if ps.wsym != nil {
				nc = cur.cost + ps.wsym[sy]
			}
			productNodes(opts, func(next []int32) { ps.push(next, nextIDs, 0, 0, nc) })
		}
	}
}

// expandNFARel explores the padded product driven by the relation NFA:
// components with a ⊥ column are frozen (their word has ended, so their
// edge NFA must accept at freeze time); acceptance requires the relation
// NFA to accept and every unfrozen component NFA to accept. Component and
// relation automata run through their interned subset caches.
func (ps *prodSearch) expandNFARel() {
	ix, rel := ps.ev.ix, ps.rel
	rc := rel.subsetCache()
	labels := rel.labelSet()
	nextIDs, opts, selfOpts := ps.nextIDs, ps.opts, ps.selfOpts
	for {
		cur, nodes, ids, ok := ps.next()
		if !ok {
			return
		}
		accept := rc.Final(cur.rid)
		for i, c := range ps.caches {
			if !accept {
				break
			}
			accept = cur.mask&(1<<uint(i)) != 0 || c.Final(ids[i])
		}
		if accept {
			ps.accept(nodes, cur.cost)
		}
		for _, code := range labels {
			rnext := rc.Step(cur.rid, code)
			if rnext == automata.Dead {
				continue
			}
			tuple := rel.codec.decode(code)
			mask := cur.mask
			ok := true
			stepCost := int32(0)
			for i, c := range ps.caches {
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
					nextIDs[i] = ids[i]
					selfOpts[i] = nodes[i]
					opts[i] = selfOpts[i : i+1]
					continue
				}
				if mask&(1<<uint(i)) != 0 {
					ok = false // symbol after ⊥ in the same column
					break
				}
				nextIDs[i] = c.Step(ids[i], int32(tuple[i]))
				if nextIDs[i] == automata.Dead {
					ok = false
					break
				}
				opts[i] = ix.OutByLabel(int(nodes[i]), tuple[i])
				if len(opts[i]) == 0 {
					ok = false
					break
				}
				if ps.wsym != nil {
					stepCost = max(stepCost, ps.ev.symCost(tuple[i]))
				}
			}
			if !ok {
				continue
			}
			if ps.wsym == nil {
				stepCost = 1
			}
			nc := cur.cost + stepCost
			productNodes(opts, func(next []int32) { ps.push(next, nextIDs, rnext, mask, nc) })
		}
	}
}

// productNodes enumerates the cartesian product of node options.
func productNodes[T any](opts [][]T, f func([]T)) {
	nodes := make([]T, len(opts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(opts) {
			f(nodes)
			return
		}
		for _, v := range opts[i] {
			nodes[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// symCost is the clamped per-label cost under the evaluator's weight.
func (ev *evaluator) symCost(label rune) int32 {
	return max(ev.weight(label), 0)
}

// wItem / wHeap: a minimal binary min-heap on (cost, idx). idx points into a
// caller-owned slab that only ever grows, so it doubles as the insertion
// sequence: equal-cost entries pop in FIFO order, which keeps every search
// built on the heap deterministic.
type wItem struct {
	cost int32
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

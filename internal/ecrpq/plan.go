package ecrpq

import (
	"slices"
	"sort"

	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
)

// Every evaluation algorithm of the paper ends in the same step: join a
// conjunction of path atoms over a graph pattern. This file is that step.
// A conjunct is compiled once into a plan — the join constraints in
// JoinOrder over dense node-variable slots — whose atoms sit behind
// atomSource. A frame is the choice point of one constraint under a partial
// assignment, a cursor over the ways to satisfy it, and one enumeration of
// them serves both drivers: the resumable backtracking search below, a stack
// of frames every unranked evaluation, witness search and stream pulls, and
// the best-first search of anyk.go, which materializes one frame's bindings
// per partition-tree node.

// JoinStep is one placed atom of a join order: its pattern edge and how the
// join visits it under the variables bound before it — "check" (both
// endpoints bound), "expand" (source bound), "expand-rev" (target bound) or
// "scan" (neither).
type JoinStep struct {
	Edge int
	Mode string
}

// JoinOrder is the order of every atom join: it repeatedly places the
// remaining edge with the fewest unbound endpoints, the first in query order
// on ties, and binds its endpoints in bound. A self-loop counts its variable
// once. bound holds the pre-bound variables on entry and every variable of
// the placed edges on return; edges with skip set (a relation group's atoms)
// are left out. The order reads no statistics: it is a function of the
// pattern and the pre-bound variables alone.
func JoinOrder(edges []pattern.Edge, skip []bool, bound map[string]bool) []JoinStep {
	placed := make([]bool, len(edges))
	var out []JoinStep
	for {
		best, fewest := -1, 3
		for i, e := range edges {
			if placed[i] || skip != nil && skip[i] {
				continue
			}
			n := 0
			if !bound[e.From] {
				n++
			}
			if !bound[e.To] && e.To != e.From {
				n++
			}
			if n < fewest {
				best, fewest = i, n
			}
		}
		if best < 0 {
			return out
		}
		e := edges[best]
		mode := "scan"
		switch u, v := bound[e.From], bound[e.To]; {
		case u && v:
			mode = "check"
		case u:
			mode = "expand"
		case v:
			mode = "expand-rev"
		}
		placed[best] = true
		bound[e.From], bound[e.To] = true, true
		out = append(out, JoinStep{Edge: best, Mode: mode})
	}
}

// boundSet returns the variables of a pre-assignment as a fresh bound set for
// JoinOrder to extend.
func boundSet(pre map[string]int) map[string]bool {
	bound := make(map[string]bool, len(pre))
	for z := range pre {
		bound[z] = true
	}
	return bound
}

// atomSource is the read surface of one path atom's binary relation over
// the database nodes. Node lists are sorted ascending and must not be
// modified; the parallel cost list holds each pair's witness cost (length
// or weight of a cheapest matching path) and is nil when the source
// carries none. It is implemented by the lazy probe memo (probeAtom) of an
// evaluator or a bounded leaf, and by the replay's relations (*EdgeRel).
type atomSource interface {
	// forward lists the targets of u; backward the sources of v.
	forward(u int) ([]int, []int32)
	backward(v int) ([]int, []int32)
	// scanNext returns the next node, after the ones c has returned, with a
	// non-empty forward (else backward) list, in ascending order; ok is
	// false when there is none, or the budget cut the scan.
	scanNext(forward bool, c *scanCursor) (u int, vs []int, costs []int32, ok bool)
}

// scanCursor is where a scan stands: the next node to look at and, while a
// probe scan walks chunks, the end of the chunk prefetched and the width of
// the next (0 before the first call); k counts the rows a walk of a complete
// table's support has returned.
type scanCursor struct {
	next, hi, chunk, k int
}

// plan is one conjunct compiled for execution.
type plan struct {
	steps []step
	vars  []string // slot -> node variable
	out   []int32  // slot of each output position
	init  []int32  // the starting assignment: pre-bound values, -1 = unbound

	// ranked makes every step report its witness cost and enumerate every
	// binding. It is set by whoever compiles the plan, never inferred from
	// what a source happens to carry: an unranked plan yields cost 0 and may
	// replace the enumeration of a variable nothing reads again by an
	// existence check.
	ranked bool
}

// step is one join constraint: a path atom between two slots, or a relation
// group over several atoms.
type step struct {
	src      atomSource
	from, to int32
	grp      *groupStep // non-nil for relation groups (src is nil)
	lvl      int        // the group's level (groupStep.open)

	// bindFrom/bindTo report that the endpoint is read after this step (by a
	// later step or the output projection). An endpoint nothing reads again
	// is never bound: one candidate proves the extension.
	bindFrom, bindTo bool
	// min is an admissible lower bound of the step's cost over all bindings
	// (the best-first driver's key for undetermined steps).
	min int32
}

// newPlan starts a plan of about n steps.
func newPlan(ranked bool, n int) *plan {
	return &plan{ranked: ranked, steps: make([]step, 0, n), vars: make([]string, 0, 2*n)}
}

// slot interns a node variable (conjuncts have a handful; a scan beats a map).
func (p *plan) slot(z string) int32 {
	for s, v := range p.vars {
		if v == z {
			return int32(s)
		}
	}
	p.vars = append(p.vars, z)
	return int32(len(p.vars) - 1)
}

// addAtom appends a path-atom step.
func (p *plan) addAtom(src atomSource, from, to string, min int32) {
	p.steps = append(p.steps, step{src: src, from: p.slot(from), to: p.slot(to), min: min})
}

// seal fixes the output projection and the pre-bound tuple and derives which
// endpoints each step has to bind; bindAll keeps every variable (ranked
// plans and witness search need the full assignment).
func (p *plan) seal(out []string, pre map[string]int, bindAll bool) {
	p.out = make([]int32, len(out))
	for i, z := range out {
		p.out[i] = p.slot(z)
	}
	p.init = make([]int32, len(p.vars))
	read := make([]bool, len(p.vars)) // slot is read after the step under consideration
	for s, z := range p.vars {
		p.init[s] = -1
		if v, ok := pre[z]; ok {
			p.init[s] = int32(v)
		}
		read[s] = bindAll || p.ranked
	}
	for _, s := range p.out {
		read[s] = true
	}
	for i := len(p.steps) - 1; i >= 0; i-- {
		st := &p.steps[i]
		if st.grp != nil {
			for _, s := range st.grp.src {
				read[s] = true
			}
			for _, s := range st.grp.tgt {
				read[s] = true
			}
			continue
		}
		st.bindFrom, st.bindTo = read[st.from], read[st.to]
		read[st.from], read[st.to] = true, true
	}
}

// walk returns the side the join walks the step from — its sources when
// forward, else its targets — with the endpoints uok and vok say are bound,
// and whether a support bitset answers the step there in place of its lists:
// the other side has to be read by nothing (never so in a ranked plan, see
// seal), and the source a probe atom, which can sweep for who has a partner.
func (st *step) walk(uok, vok bool) (forward, bySupport bool) {
	forward = uok || !vok && (st.bindFrom || !st.bindTo)
	farBind := st.bindTo
	if !forward {
		farBind = st.bindFrom
	}
	_, probed := st.src.(*probeAtom) // a group step has a nil src
	return forward, probed && st.from != st.to && !(uok && vok) && !farBind
}

// support returns the bitset that answers the step in place of its lists, or
// nil, and the side the step is walked from (walk).
func (st *step) support(uok, vok bool) (sup []uint64, forward bool) {
	forward, bySupport := st.walk(uok, vok)
	if !bySupport {
		return nil, forward
	}
	return st.src.(*probeAtom).support(forward), forward
}

// clone returns a copy of p whose steps and pre-bound tuple are its own.
func (p *plan) clone() *plan {
	c := *p
	c.steps, c.init = slices.Clone(p.steps), slices.Clone(p.init)
	return &c
}

// project writes the output slots of a complete assignment into row.
func (p *plan) project(a, row []int32) {
	for i, s := range p.out {
		row[i] = a[s]
	}
}

// runPollEvery is the grain at which a search polls its budget, that of
// AnyK.Next: a poll is two atomic loads, a parent walk, a clock read and a
// select, the work of several bindings.
const runPollEvery = 64

// search is the resumable depth-first join of a plan: a stack of one frame
// per step, each the choice point of its step under the assignment the
// frames below it made. next runs it to its next complete assignment and
// returns there; nothing of it lives on the goroutine's stack in between, so
// a consumer may pull it a row at a time, or drop it. The budget is polled on
// the first descent and every runPollEvery-th after, leaf or not; the kernels
// under a step poll it per level themselves.
type search struct {
	p     *plan
	bud   *engine.Budget
	a     []int32 // the partial assignment, -1 = unbound
	fr    []frame
	costs []int   // costs[d]: summed cost of the steps before d (0 unless ranked)
	row   []int32 // the projection of the last complete assignment
	d     int     // the frame being advanced; -1 once the search has ended
	polls int     // descents so far: 0 before the first, into the root
}

// reset starts s over p under bud, keeping its buffers.
func (s *search) reset(p *plan, bud *engine.Budget) {
	n := len(p.steps)
	s.p, s.bud, s.d, s.polls = p, bud, 0, 0
	s.a = append(s.a[:0], p.init...)
	s.fr = slices.Grow(s.fr[:0], n)[:n]
	s.costs = slices.Grow(s.costs[:0], n+1)[:n+1]
	s.costs[0] = 0
	s.row = slices.Grow(s.row[:0], len(p.out))[:len(p.out)]
}

// next runs the search to its next complete assignment and returns its
// output projection, in a row the search reuses, with its summed witness
// cost (0 unless ranked); the assignment itself is s.a until the next call.
// ok is false once the search has ended, exhausted or cut by the budget.
func (s *search) next() (row []int32, cost int, ok bool) {
	n := len(s.p.steps)
	if s.polls == 0 { // the first descent, into the root
		s.polls++
		switch {
		case s.bud.Canceled():
			s.d = -1
		case n == 0:
			s.d = -1
			s.p.project(s.a, s.row)
			return s.row, 0, true
		default:
			s.fr[0].open(&s.p.steps[0], s.a)
		}
	}
	for s.d >= 0 {
		f := &s.fr[s.d]
		c, ok := f.next(s.a)
		if !ok {
			if f.stop {
				break
			}
			s.d--
			continue
		}
		if s.p.ranked {
			cost = s.costs[s.d] + int(c)
		}
		if s.polls++; s.polls%runPollEvery == 1 && s.bud.Canceled() {
			break
		}
		if s.d == n-1 { // complete: the next call resumes at this frame
			s.p.project(s.a, s.row)
			return s.row, cost, true
		}
		s.d++
		s.costs[s.d] = cost
		s.fr[s.d].open(&s.p.steps[s.d], s.a)
	}
	s.d = -1
	return nil, 0, false
}

// drain yields every row left in s until yield returns false.
func (s *search) drain(yield StreamFunc) {
	for row, cost, ok := s.next(); ok && yield(row, cost); row, cost, ok = s.next() {
	}
}

// stream runs the plan and yields each complete assignment's output
// projection, in one row it reuses, until yield returns false.
func (p *plan) stream(bud *engine.Budget, yield StreamFunc) {
	var s search
	s.reset(p, bud)
	s.drain(yield)
}

// streamSeeded streams the plan once per node of nodes, written into the
// pre-bound slot of the variable z, until the budget cancels, starting one
// search over for each. A false return from yield ends one run, not the
// others.
func (p *plan) streamSeeded(z string, nodes []int, bud *engine.Budget, yield StreamFunc) {
	z0 := p.slot(z)
	var s search
	for _, u := range nodes {
		if bud.Canceled() {
			return
		}
		p.init[z0] = int32(u)
		s.reset(p, bud)
		s.drain(yield)
	}
}

// sourceVars returns the distinct source variables of g's edges, in edge
// order: a row a graph gains by a window binds one of them to a node of the
// window's frontier (see delta.go).
func sourceVars(g *pattern.Graph) []string {
	var out []string
	for _, e := range g.Edges {
		if !slices.Contains(out, e.From) {
			out = append(out, e.From)
		}
	}
	return out
}

func bitHas(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(b []uint64, i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

func costAt(costs []int32, i int) int32 {
	if costs == nil {
		return 0
	}
	return costs[i]
}

// costOf looks v up in the sorted list ws and reports its cost.
func costOf(ws []int, costs []int32, v int) (int32, bool) {
	if i := sort.SearchInts(ws, v); i < len(ws) && ws[i] == v {
		return costAt(costs, i), true
	}
	return 0, false
}

// frame is the choice point of one step: the candidates the step offers
// under the assignment it was opened on, and the cursor over them. A path
// atom's candidates are one check (once), a list of nodes for one slot, or a
// scan of the nodes with a non-empty list followed, per node, by its list; a
// group's are its free-source levels, then the end tuples of an expansion
// (groupStep.open).
type frame struct {
	st   *step
	once bool // one candidate that binds nothing, of cost d
	d    int32
	slot int32 // the slot the candidates of ws bind; -1: read by nothing, the first stands for all
	ws   []int
	ds   []int32
	i    int // the next candidate of ws

	scanning bool  // walking the scan of st.src
	forward  bool  // the scan's side
	near     int32 // the slot the scanned node binds, -1 while none is bound
	sc       scanCursor
	level    bool // a group level: its candidates pass the seed masks (admits)
	stop     bool // the budget cut the step: the search ends with it
}

// open points f at the candidates of st under the partial assignment a
// (-1 = unbound).
func (f *frame) open(st *step, a []int32) {
	// Field by field, not *f = frame{…}: a struct store runs the write
	// barrier over every pointer of the frame, once per descent; and a
	// search's frame d is always step d's.
	if f.st != st {
		f.st, f.level = st, st.grp != nil && st.lvl < len(st.grp.free)
	}
	f.once, f.d, f.slot, f.i, f.scanning, f.near, f.stop = false, 0, -1, len(f.ws), false, -1, false
	if st.grp != nil {
		f.stop = !st.grp.open(f, st.lvl, a)
		return
	}
	u, v := int(a[st.from]), int(a[st.to])
	uok, vok := u >= 0, v >= 0
	sup, forward := st.support(uok, vok)
	near, bindNear := st.from, st.bindFrom
	if !forward {
		near, bindNear = st.to, st.bindTo
	}
	switch {
	case sup != nil && (uok || vok):
		f.once = bitHas(sup, int(a[near]))
	case sup != nil:
		f.list(near, bindNear, bitList(sup), nil)
	case uok && vok: // includes bound self-loops (one slot twice)
		ws, ds := st.src.forward(u)
		f.d, f.once = costOf(ws, ds, v)
	case uok:
		ws, ds := st.src.forward(u)
		f.list(st.to, st.bindTo, ws, ds)
	case vok:
		ws, ds := st.src.backward(v)
		f.list(st.from, st.bindFrom, ws, ds)
	default:
		f.scanning, f.forward, f.sc = true, forward, scanCursor{}
	}
}

// list makes ws, with costs ds, the candidates of slot; bind false leaves the
// slot unbound.
func (f *frame) list(slot int32, bind bool, ws []int, ds []int32) {
	f.slot, f.ws, f.ds, f.i = -1, ws, ds, 0
	if bind {
		f.slot = slot
	}
}

// next binds the frame's next candidate in a and returns its witness cost;
// ok is false when the candidates are spent, the slots the frame bound
// unbound again.
func (f *frame) next(a []int32) (cost int32, ok bool) {
	st := f.st
	for {
		if i := f.i; i < len(f.ws) { // first: the common case
			f.i++
			switch {
			case f.slot < 0:
				f.i = len(f.ws)
				return 0, true
			case f.level && !st.grp.admits(st.lvl, f.ws[i]):
				if f.stop = st.grp.sc.cut; f.stop {
					return 0, false
				}
				continue
			}
			a[f.slot] = int32(f.ws[i])
			return costAt(f.ds, i), true
		}
		if f.once {
			f.once = false
			return f.d, true
		}
		if st.grp != nil && !f.level {
			return st.grp.nextEnd(a)
		}
		if f.slot >= 0 {
			a[f.slot] = -1
		}
		if f.near >= 0 {
			a[f.near], f.near = -1, -1
		}
		if !f.scanning {
			return 0, false
		}
		u, ws, ds, found := st.src.scanNext(f.forward, &f.sc)
		if !found {
			f.scanning = false
			return 0, false
		}
		near, far, bindNear, bindFar := st.from, st.to, st.bindFrom, st.bindTo
		if !f.forward {
			near, far, bindNear, bindFar = far, near, bindFar, bindNear
		}
		switch {
		case st.from == st.to:
			if d, loop := costOf(ws, ds, u); loop && !st.bindFrom {
				f.scanning = false
				return 0, true
			} else if loop {
				a[st.from], f.near, f.once, f.d = int32(u), st.from, true, d
			}
		case bindNear:
			a[near], f.near = int32(u), near
			f.list(far, bindFar, ws, ds)
		default: // neither end is read: one pair proves the step
			f.scanning = false
			return 0, true
		}
	}
}

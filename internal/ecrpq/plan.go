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
// atomSource; step.bindings enumerates the ways to satisfy one constraint
// under a partial assignment, and two drivers share it: the backtracking
// search below (plan.run) and the best-first search of anyk.go.

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
// carries none. It is implemented by the evaluator's lazy probe memo
// (probeAtom) and by materialized relations (*EdgeRel).
type atomSource interface {
	// forward lists the targets of u; backward the sources of v.
	forward(u int) ([]int, []int32)
	backward(v int) ([]int, []int32)
	// has reports whether (u, v) is in the relation, with its cost.
	has(u, v int) (int32, bool)
	// scan visits every node with a non-empty forward (else backward) list
	// in ascending order until f returns false.
	scan(forward bool, f func(u int, vs []int, costs []int32) bool)
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

// support returns the bitset that answers the step in place of its lists, or
// nil, and the side the step is walked from: its sources when forward, else
// its targets. uok and vok say which endpoints are bound. The other side has
// to be read by nothing (never so in a ranked plan, see seal), and the source
// a probe atom, which can sweep for who has a partner.
func (st *step) support(uok, vok bool) (sup []uint64, forward bool) {
	forward = uok || !vok && (st.bindFrom || !st.bindTo)
	farBind := st.bindTo
	if !forward {
		farBind = st.bindFrom
	}
	pa, probed := st.src.(*probeAtom) // a group step has a nil src
	if !probed || st.from == st.to || uok && vok || farBind {
		return nil, forward
	}
	return pa.support(forward), forward
}

// project writes the output slots of a complete assignment into row.
func (p *plan) project(a, row []int32) {
	for i, s := range p.out {
		row[i] = a[s]
	}
}

// runPollEvery is the grain at which plan.run polls its budget, that of
// AnyK.Next: a poll is two atomic loads, a parent walk, a clock read and a
// select, the work of several bindings.
const runPollEvery = 64

// run is the backtracking driver: a depth-first search over the steps in
// order, calling yield with every complete assignment and its summed witness
// cost (0 unless ranked) until yield returns false or the budget cancels. The
// budget is polled on the first descent and every runPollEvery-th after, leaf
// or not; the kernels under a step poll it per level themselves.
func (p *plan) run(bud *engine.Budget, yield func(a []int32, cost int) bool) {
	a := append([]int32(nil), p.init...)
	costs := make([]int, len(p.steps)+1) // costs[i]: summed cost of steps before i
	depth := 0                           // the step whose bindings are being enumerated
	descents := 0
	var cont func(d int32) bool
	descend := func() bool {
		if descents++; descents%runPollEvery == 1 && bud.Canceled() {
			return false
		}
		if depth == len(p.steps) {
			return yield(a, costs[depth])
		}
		return p.steps[depth].bindings(a, cont)
	}
	cont = func(d int32) bool {
		costs[depth+1] = costs[depth]
		if p.ranked {
			costs[depth+1] += int(d)
		}
		depth++
		ok := descend()
		depth--
		return ok
	}
	descend()
}

// stream runs the plan and yields each complete assignment's output
// projection, in one row it reuses.
func (p *plan) stream(bud *engine.Budget, yield StreamFunc) {
	row := make([]int32, len(p.out))
	p.run(bud, func(a []int32, cost int) bool {
		p.project(a, row)
		return yield(row, cost)
	})
}

// streamSeeded streams the plan once per node of nodes, written into the
// pre-bound slot of the variable z, until the budget cancels. A false return
// from yield ends one run, not the others.
func (p *plan) streamSeeded(z string, nodes []int, bud *engine.Budget, yield StreamFunc) {
	s := p.slot(z)
	for _, u := range nodes {
		if bud.Canceled() {
			return
		}
		p.init[s] = int32(u)
		p.stream(bud, yield)
	}
}

// SourceVars returns the distinct source variables of g's edges, in edge
// order: a row a graph gains by a window binds one of them to a node of the
// window's frontier (see delta.go).
func SourceVars(g *pattern.Graph) []string {
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

// bindings enumerates the ways to satisfy the step under the partial
// assignment a (-1 = unbound): for each it writes the step's newly bound
// slots into a and calls cont with the step's witness cost. The slots are
// unbound again on return. A false return from cont stops the enumeration
// and is passed on.
func (st *step) bindings(a []int32, cont func(cost int32) bool) bool {
	if st.grp != nil {
		return st.grp.bindings(a, cont)
	}
	u, v := int(a[st.from]), int(a[st.to])
	uok, vok := u >= 0, v >= 0
	sup, forward := st.support(uok, vok)
	near, far, bindNear, bindFar := st.from, st.to, st.bindFrom, st.bindTo
	if !forward {
		near, far, bindNear, bindFar = far, near, bindFar, bindNear
	}
	switch {
	case sup != nil && (uok || vok):
		return !bitHas(sup, int(a[near])) || cont(0)
	case sup != nil:
		return bindEach(a, near, bindNear, bitList(sup), nil, cont)
	case uok && vok: // includes bound self-loops (one slot twice)
		if d, ok := st.src.has(u, v); ok {
			return cont(d)
		}
		return true
	case uok:
		ws, ds := st.src.forward(u)
		return bindEach(a, st.to, st.bindTo, ws, ds, cont)
	case vok:
		ws, ds := st.src.backward(v)
		return bindEach(a, st.from, st.bindFrom, ws, ds, cont)
	}
	ok := true
	st.src.scan(forward, func(u int, ws []int, ds []int32) bool {
		switch {
		case st.from == st.to:
			if d, loop := costOf(ws, ds, u); loop {
				if !st.bindFrom {
					ok = cont(0)
					return false
				}
				a[st.from] = int32(u)
				ok = cont(d)
				a[st.from] = -1
			}
		case bindNear:
			a[near] = int32(u)
			ok = bindEach(a, far, bindFar, ws, ds, cont)
			a[near] = -1
		default: // neither end is read: one pair proves the step
			if len(ws) > 0 {
				ok = cont(0)
				return false
			}
		}
		return ok
	})
	return ok
}

// bindEach binds slot to each candidate in turn and calls cont with its cost.
// When the slot is not read again (bind false) the first candidate stands for
// all of them: cont runs once and the slot stays unbound.
func bindEach(a []int32, slot int32, bind bool, ws []int, ds []int32, cont func(int32) bool) bool {
	for i, w := range ws {
		if !bind {
			return cont(0)
		}
		a[slot] = int32(w)
		if !cont(costAt(ds, i)) {
			a[slot] = -1
			return false
		}
	}
	a[slot] = -1
	return true
}

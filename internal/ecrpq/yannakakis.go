package ecrpq

// The acyclic-join specialization. When the conjunct graph of a join over
// materialized relations admits a join tree (GYO reduction,
// planner.BuildJoinTree), the join runs as Yannakakis' algorithm: a
// bottom-up semijoin pass filters every parent relation by its children, a
// top-down pass filters every child by its parent, and the enumeration over
// the fully reduced relations meets no dead end — total work linear in the
// relation sizes plus the output, where backtracking over the unreduced
// relations can spend time exponential in the query size on dead-end
// prefixes. The reduction lives here; the enumeration is the shared
// backtracking driver over a plan whose atom sources are the reduced
// relations' liveness views (yanRel). Subtrees containing no output variable
// are existence-checked by the semijoin passes alone and get no plan step
// (the free-connex trick) — disabled in ranked mode, where every atom's cost
// must flow into the witness cost.

import (
	"sort"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
)

// strategy asks the planner's gate how the join of the kept atoms runs in
// the order of spec. The relations do not exist yet, so the gate weighs the
// backtracking estimate against what building them would cost.
func (ev *evaluator) strategy(atoms []planner.Atom, spec *planner.PlanSpec) (planner.Strategy, *planner.JoinTree) {
	j := planner.Join{Cost: spec.Cost, Lazy: ev.lazy, Groups: len(ev.q.Groups) > 0}
	for _, a := range atoms {
		j.Build += a.Est.Pairs + float64(a.Est.Nodes)
	}
	j.Graph = func() ([]planner.EdgeRef, []bool) { return edgeRefs(ev.q.Pattern), ev.dropped }
	return ev.tune.Strategy(j)
}

// edgeRefs is the conjunct graph of g as the planner reads it.
func edgeRefs(g *pattern.Graph) []planner.EdgeRef {
	refs := make([]planner.EdgeRef, len(g.Edges))
	for i, e := range g.Edges {
		refs[i] = planner.EdgeRef{From: e.From, To: e.To}
	}
	return refs
}

// StrategyOf reports how EvalWith(q, db, o) runs q's join, without running
// it: what a plan report may say about an evaluation it has not watched.
func StrategyOf(q *Query, db *graph.DB, o Options) (planner.Strategy, error) {
	ev, err := newEvaluator(q, db, o, false)
	if err != nil {
		return planner.Backtracking, err
	}
	_, atoms := ev.planAtoms()
	s, _ := ev.strategy(atoms, planner.Order(atoms, nil))
	return s, nil
}

// yannakakisPlan is the evaluator-level dispatch: when the gate picks the
// Yannakakis program for the kept edges in the order of spec, it resolves the
// per-edge relations through the atom store and compiles the program. ok reports whether it applies
// — false means the caller should compile the generic backtracking join; a
// nil plan with ok set means the join is provably empty.
func (ev *evaluator) yannakakisPlan(kept []int, atoms []planner.Atom, spec *planner.PlanSpec, pre map[string]int) (p *plan, ok bool) {
	s, tree := ev.strategy(atoms, spec)
	if s != planner.Yannakakis {
		return nil, false
	}
	rels := make([]*EdgeRel, len(ev.q.Pattern.Edges))
	readFrom, readTo := ev.q.Pattern.Reads(ev.dropped, pre)
	for _, ei := range kept {
		var r *EdgeRel
		var err error
		if label := ev.q.Pattern.Edges[ei].Label; ev.ranked || readFrom[ei] && readTo[ei] {
			r, err = ev.store.Relation(label, ev.sigma,
				engine.ReachOpts{Budget: ev.bud, Levels: ev.ranked, Weight: ev.rankedWeight()})
		} else { // an endpoint nothing reads: the semijoin program gets the support
			r, err = ev.store.Support(label, ev.sigma, readTo[ei], ev.bud)
		}
		if err != nil {
			// Budget-truncated (or otherwise failed) materialization:
			// fall back — a canceled budget unwinds the backtracking
			// join immediately anyway.
			return nil, false
		}
		rels[ei] = r
	}
	return yannakakisJoin(ev.q.Pattern, rels, tree, pre, ev.ranked), true
}

// yanRel is one atom's relation with a pair-level liveness bitset laid
// over the EdgeRel's forward adjacency (flattened positions, prefix
// offsets per source). The semijoin passes only ever clear bits. As an
// atomSource it lists live pairs only, filtered into per-relation scratch
// buffers: a plan visits each atom in one step, so a listing is never read
// after the next one of the same relation is requested.
type yanRel struct {
	r        *EdgeRel
	from, to string
	selfLoop bool
	ranked   bool  // list costs along with the nodes
	off      []int // off[u] = flattened position of fwd[u][0]; len n+1
	alive    []uint64
	live     int

	nodes []int
	costs []int32
}

// newYanRel builds the liveness overlay, pre-filtering by a self-loop
// constraint (From == To atoms keep only diagonal pairs) and by any
// pre-bound endpoint variables.
func newYanRel(r *EdgeRel, from, to string, pre map[string]int, ranked bool) *yanRel {
	n := r.NumNodes()
	y := &yanRel{r: r, from: from, to: to, selfLoop: from == to, ranked: ranked}
	y.off = make([]int, n+1)
	widest := 0
	for u := 0; u < n; u++ {
		y.off[u+1] = y.off[u] + len(r.Forward(u))
		widest = max(widest, len(r.Forward(u)))
	}
	y.nodes = make([]int, 0, widest)
	total := y.off[n]
	y.alive = make([]uint64, (total+63)/64)
	pf, pfok := pre[from]
	pt, ptok := pre[to]
	for u := 0; u < n; u++ {
		if pfok && u != pf {
			continue
		}
		for i, v := range r.Forward(u) {
			if y.selfLoop && v != u {
				continue
			}
			if ptok && v != pt {
				continue
			}
			bitSet(y.alive, y.off[u]+i)
			y.live++
		}
	}
	return y
}

// pos returns the flattened position of (u, v), or -1 if absent.
func (y *yanRel) pos(u, v int) int {
	ws := y.r.Forward(u)
	i := sort.SearchInts(ws, v)
	if i < len(ws) && ws[i] == v {
		return y.off[u] + i
	}
	return -1
}

// has reports whether the pair (u, v) is present and still live.
func (y *yanRel) has(u, v int) (int32, bool) {
	if u < 0 || u >= len(y.off)-1 {
		return 0, false
	}
	p := y.pos(u, v)
	if p < 0 || !bitHas(y.alive, p) {
		return 0, false
	}
	if !y.ranked || y.r.lev == nil {
		return 0, true
	}
	return y.r.lev[u][p-y.off[u]], true
}

// keep filters a listing of the underlying relation down to the pairs alive
// reports, into the scratch buffers.
func (y *yanRel) keep(ws []int, ds []int32, alive func(i, w int) bool) ([]int, []int32) {
	y.nodes, y.costs = y.nodes[:0], y.costs[:0]
	for i, w := range ws {
		if alive(i, w) {
			y.nodes = append(y.nodes, w)
			if y.ranked && ds != nil {
				y.costs = append(y.costs, ds[i])
			}
		}
	}
	if len(y.costs) == 0 {
		return y.nodes, nil
	}
	return y.nodes, y.costs
}

func (y *yanRel) forward(u int) ([]int, []int32) {
	ws, ds := y.r.forward(u)
	return y.keep(ws, ds, func(i, _ int) bool { return bitHas(y.alive, y.off[u]+i) })
}

func (y *yanRel) backward(v int) ([]int, []int32) {
	ws, ds := y.r.backward(v)
	return y.keep(ws, ds, func(_, w int) bool { _, ok := y.has(w, v); return ok })
}

func (y *yanRel) scan(forward bool, f func(u int, vs []int, costs []int32) bool) {
	list := y.forward
	if !forward {
		list = y.backward
	}
	for u := 0; u < len(y.off)-1; u++ {
		if ws, ds := list(u); len(ws) > 0 && !f(u, ws, ds) {
			return
		}
	}
}

// value resolves a shared variable to its side of the pair.
func (y *yanRel) value(z string, u, v int) int {
	if z == y.from {
		return u
	}
	return v
}

// eachAlive visits every live pair; returning false stops the sweep.
func (y *yanRel) eachAlive(f func(u, v int, p int) bool) {
	n := len(y.off) - 1
	for u := 0; u < n; u++ {
		if y.off[u] == y.off[u+1] {
			continue
		}
		for i, v := range y.r.Forward(u) {
			p := y.off[u] + i
			if bitHas(y.alive, p) && !f(u, v, p) {
				return
			}
		}
	}
}

// support returns the bitset of node values variable z takes over the
// live pairs.
func (y *yanRel) support(z string) []uint64 {
	n := len(y.off) - 1
	sup := make([]uint64, (n+63)/64)
	y.eachAlive(func(u, v, _ int) bool {
		bitSet(sup, y.value(z, u, v))
		return true
	})
	return sup
}

// filter clears every live pair the predicate rejects.
func (y *yanRel) filter(keep func(u, v int) bool) {
	y.eachAlive(func(u, v, p int) bool {
		if !keep(u, v) {
			bitClear(y.alive, p)
			y.live--
		}
		return true
	})
}

// semijoin filters p's live pairs to those joinable with a live pair of c
// on the given shared variables: a proper pairwise intersection when the
// atoms are parallel (both endpoints shared), an endpoint-support filter
// on one shared variable, and the cross-product rule (empty child ⇒
// empty parent) when the atoms share nothing. This is the relation-level
// operation that filtering each variable's domain only approximates:
// parallel relations {(a,b),(c,d)} and {(a,d),(c,b)} pass domain filtering
// but their semijoin is empty.
func semijoin(p, c *yanRel, shared []string) {
	switch len(shared) {
	case 0:
		if c.live == 0 {
			p.filter(func(int, int) bool { return false })
		}
	case 1:
		z := shared[0]
		sup := c.support(z)
		p.filter(func(u, v int) bool { return bitHas(sup, p.value(z, u, v)) })
	default:
		swapped := c.from != p.from
		p.filter(func(u, v int) bool {
			if swapped {
				u, v = v, u
			}
			_, ok := c.has(u, v)
			return ok
		})
	}
}

// yannakakisJoin runs the semijoin program of g over rels along the join
// tree and compiles the enumeration of the fully reduced relations; a nil
// plan means the join is empty. Atoms outside the tree (Parent == -2, i.e.
// minimized duplicates the caller masked out of BuildJoinTree) are ignored;
// pre pre-binds node variables Check-style.
func yannakakisJoin(g *pattern.Graph, rels []*EdgeRel, tree *planner.JoinTree, pre map[string]int, ranked bool) *plan {
	planner.CountAcyclicPlan()
	nodes := make([]*yanRel, len(g.Edges))
	for _, i := range tree.Order {
		e := g.Edges[i]
		nodes[i] = newYanRel(rels[i], e.From, e.To, pre, ranked)
	}

	// Pass 1, leaves up: filter every parent by its children.
	planner.CountSemijoinPass()
	for k := len(tree.Order) - 1; k >= 0; k-- {
		i := tree.Order[k]
		if p := tree.Parent[i]; p >= 0 {
			semijoin(nodes[p], nodes[i], tree.Shared[i])
		}
	}
	if len(tree.Order) > 0 && nodes[tree.Order[0]].live == 0 {
		return nil // the root drained: the join is empty
	}
	// Pass 2, root down: filter every child by its parent. After this the
	// relations are fully reduced — every live pair extends to a full
	// answer, which is what makes the enumeration backtrack-free.
	planner.CountSemijoinPass()
	for _, i := range tree.Order {
		if p := tree.Parent[i]; p >= 0 {
			semijoin(nodes[i], nodes[p], tree.Shared[i])
		}
	}

	// An atom gets a plan step when its subtree contains an atom over an
	// output variable (the connected hull of the output atoms — outside it,
	// the semijoin passes already guarantee existence). Ranked mode
	// enumerates everything so each atom's cost reaches the witness cost.
	out := map[string]bool{}
	for _, z := range g.Out {
		out[z] = true
	}
	inS := make([]bool, len(g.Edges))
	for k := len(tree.Order) - 1; k >= 0; k-- {
		i := tree.Order[k]
		e := g.Edges[i]
		if ranked || out[e.From] || out[e.To] {
			inS[i] = true
		}
		if inS[i] && tree.Parent[i] >= 0 {
			inS[tree.Parent[i]] = true
		}
	}
	p := newPlan(ranked, len(tree.Order))
	for _, i := range tree.Order { // parents before children
		if inS[i] {
			p.addAtom(nodes[i], nodes[i].from, nodes[i].to, 0)
		}
	}
	p.seal(g.Out, pre, false)
	return p
}

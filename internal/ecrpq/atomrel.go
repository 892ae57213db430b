package ecrpq

import (
	"sync"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// EdgeRel is the materialized binary reachability relation of one classical
// regular expression over a database: Forward(u) lists (sorted) the nodes v
// such that some path u→v matches the expression. It is the unit of sharing
// of the bounded-evaluation engine: exponentially many variable mappings of
// a CXRPQ^≤k enumeration instantiate the same classical label, and all of
// them join over the same EdgeRel instead of re-running the product search.
// An EdgeRel is immutable after BuildRelation returns and safe for
// concurrent readers. It is the materialized atomSource of the join
// executor (plan.go).
type EdgeRel struct {
	fwd  [][]int
	lev  [][]int32 // parallel to fwd: cost of a cheapest matching path per target (nil unless built with levels)
	size int

	revOnce sync.Once
	rev     [][]int
	revLev  [][]int32 // parallel to rev (nil unless lev is set)

	minOnce sync.Once
	min     int32
}

// RelationFor computes the full relation of label over db, with the atom
// db's store holds for it; see BuildRelation.
func RelationFor(db *graph.DB, label xregex.Node, sigma []rune) (*EdgeRel, error) {
	a, err := Atoms(db).Atom(label, sigma)
	if err != nil {
		return nil, err
	}
	return BuildRelation(db, a, engine.ReachOpts{})
}

// BuildRelation computes the full relation of a over db with the sharded
// multi-source kernel (engine.ReachBatchEx over db's degree-balanced
// partition — one batched product sweep per 64 sources instead of a
// per-source BFS fan), reusing the atom's subset cache. The ∅ expression
// short-circuits to the empty relation without touching the automata layer.
//
// The build honors o.Budget at BFS-level granularity; a truncated sweep
// returns (nil, engine.ErrCanceled) rather than a partial relation —
// relations are cross-query building blocks and an incomplete one must
// never be shared. With o.Levels the relation carries, per pair, the edge
// count of a shortest matching path, which ranked joins report as witness
// cost; under o.Weight (which implies levels) the minimum total edge weight
// instead. Weighted relations must NEVER enter the atom store: a weight
// function has no identity, so two queries with distinct weights would
// collide on the same atom: AtomStore.Relation builds them per call.
func BuildRelation(db *graph.DB, a *Atom, o engine.ReachOpts) (*EdgeRel, error) {
	n := db.NumNodes()
	r := &EdgeRel{fwd: make([][]int, n)}
	if o.Levels || o.Weight != nil {
		r.lev = make([][]int32, n)
	}
	if a.empty() {
		return r, nil
	}
	srcs := make([]int, n)
	for i := range srcs {
		srcs[i] = i
	}
	res := engine.ReachBatchEx(db.Index(), a.cache, srcs, true, o)
	if res.Truncated {
		return nil, engine.ErrCanceled
	}
	for u, vs := range res.Hits {
		r.fwd[u] = vs
		r.size += len(vs)
	}
	if r.lev != nil {
		copy(r.lev, res.Levs)
	}
	return r, nil
}

// minDist returns the minimum cost over every pair in the relation — the
// cheapest single witness any binding of this atom can contribute. It is the
// atom's admissible lower bound for the any-k priority queue: an
// undetermined atom will cost at least minDist, whatever binding the
// enumeration eventually picks. Relations without levels (or empty ones)
// report 0, which is trivially admissible.
func (r *EdgeRel) minDist() int32 {
	r.minOnce.Do(func() {
		if r.lev == nil || r.size == 0 {
			return
		}
		min := int32(-1)
		for _, ls := range r.lev {
			for _, l := range ls {
				if min < 0 || l < min {
					min = l
				}
			}
		}
		if min > 0 {
			r.min = min
		}
	})
	return r.min
}

// Empty reports whether the relation holds for no pair at all.
func (r *EdgeRel) Empty() bool { return r.size == 0 }

// Size returns the number of pairs in the relation.
func (r *EdgeRel) Size() int { return r.size }

// NumNodes returns the number of database nodes the relation ranges over.
func (r *EdgeRel) NumNodes() int { return len(r.fwd) }

// Forward returns the sorted targets reachable from u (caller must not
// modify).
func (r *EdgeRel) Forward(u int) []int {
	if u < 0 || u >= len(r.fwd) {
		return nil
	}
	return r.fwd[u]
}

func (r *EdgeRel) forward(u int) ([]int, []int32) {
	if u < 0 || u >= len(r.fwd) {
		return nil, nil
	}
	if r.lev == nil {
		return r.fwd[u], nil
	}
	return r.fwd[u], r.lev[u]
}

// backward returns the sorted sources that reach v (and their costs),
// building the reverse index from the forward lists on first use (no second
// automaton pass).
func (r *EdgeRel) backward(v int) ([]int, []int32) {
	r.revOnce.Do(func() {
		r.rev = make([][]int, len(r.fwd))
		if r.lev != nil {
			r.revLev = make([][]int32, len(r.fwd))
		}
		for u, vs := range r.fwd {
			for i, w := range vs {
				r.rev[w] = append(r.rev[w], u) // u ascending ⇒ lists sorted
				if r.lev != nil {
					r.revLev[w] = append(r.revLev[w], r.lev[u][i])
				}
			}
		}
	})
	if v < 0 || v >= len(r.rev) {
		return nil, nil
	}
	if r.revLev == nil {
		return r.rev[v], nil
	}
	return r.rev[v], r.revLev[v]
}

func (r *EdgeRel) has(u, v int) (int32, bool) {
	ws, ds := r.forward(u)
	return costOf(ws, ds, v)
}

func (r *EdgeRel) scan(forward bool, f func(u int, vs []int, costs []int32) bool) {
	list := r.forward
	if !forward {
		list = r.backward
	}
	for u := range r.fwd {
		if ws, ds := list(u); len(ws) > 0 && !f(u, ws, ds) {
			return
		}
	}
}

// PlanJoin returns the edge order for joining g over materialized per-edge
// relations with the node variables of pre already bound: JoinOrder over
// every edge. The relations are not read — the order is the pattern's and
// pre's — so one order serves every mapping of a bounded run.
func PlanJoin(g *pattern.Graph, _ []*EdgeRel, pre map[string]int) []int {
	order := make([]int, 0, len(g.Edges))
	for _, st := range JoinOrder(g.Edges, nil, boundSet(pre)) {
		order = append(order, st.Edge)
	}
	return order
}

// JoinRelations runs the join of a relation-free pattern over precomputed
// per-edge relations (the leaf step of the bounded-evaluation engine) and
// collects the output tuples; with boolOnly it stops at the first. See
// JoinRelationsStream.
func JoinRelations(g *pattern.Graph, rels []*EdgeRel, order []int, pre map[string]int, boolOnly bool) *pattern.TupleSet {
	out := pattern.NewTupleSet()
	JoinRelationsStream(g, rels, order, pre, Options{}, func(row []int32, _ int) bool {
		out.Append(row)
		return !boolOnly
	})
	out.Settle()
	return out
}

// JoinRelationsStream joins a relation-free pattern over precomputed
// per-edge relations, one per edge of g, visiting edges in the given order
// (see PlanJoin; any permutation of the edges is a valid order) with the
// node variables of pre pre-bound (Check-style). Each
// satisfying assignment's output projection is yielded as the search
// completes it, and a false return from yield — or a canceled o.Budget,
// polled per step — unwinds the join. With o.Ranked every yield carries the
// summed witness cost of the relations' levels (0 for level-free relations);
// unranked joins always yield cost 0, whatever the relations carry. Tuples
// are NOT deduplicated here: a projection can complete under several
// assignments, and the caller (the bounded engine merges many leaf joins
// anyway) owns dedup and min-cost selection.
func JoinRelationsStream(g *pattern.Graph, rels []*EdgeRel, order []int, pre map[string]int, o Options, yield StreamFunc) {
	joinPlan(g, rels, order, pre, o.Ranked).stream(o.Budget, yield)
}

// joinPlan compiles the join of g over rels in the given edge order.
func joinPlan(g *pattern.Graph, rels []*EdgeRel, order []int, pre map[string]int, ranked bool) *plan {
	p := newPlan(ranked, len(order))
	for _, ei := range order {
		e := g.Edges[ei]
		min := int32(0)
		if ranked {
			min = rels[ei].minDist()
		}
		p.addAtom(rels[ei], e.From, e.To, min)
	}
	p.seal(g.Out, pre, false)
	return p
}

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
// such that some path u→v matches the expression. It is the relation format
// only the benchmark's in-process replay keeps (RelationFor, PlanJoin,
// JoinRelations): every evaluation reads an atom's pairs from the atom
// store's row tables instead. An EdgeRel is immutable after RelationFor
// returns and safe for concurrent readers.
type EdgeRel struct {
	fwd  [][]int
	size int

	revOnce sync.Once
	rev     [][]int
}

// RelationFor computes the full relation of label over db, with the atom
// db's store holds for it, by one multi-source sweep of every node
// (engine.ReachBatchEx: one batch per 64 sources).
func RelationFor(db *graph.DB, label xregex.Node, sigma []rune) (*EdgeRel, error) {
	a, err := Atoms(db).Atom(label, sigma)
	if err != nil {
		return nil, err
	}
	n := db.NumNodes()
	r := &EdgeRel{fwd: make([][]int, n)}
	if a.empty() {
		return r, nil
	}
	srcs := make([]int, n)
	for i := range srcs {
		srcs[i] = i
	}
	for u, vs := range engine.ReachBatchEx(db.Index(), a.cache, srcs, true, engine.ReachOpts{}).Hits {
		r.fwd[u] = vs
		r.size += len(vs)
	}
	return r, nil
}

// Forward returns the sorted targets reachable from u (caller must not
// modify).
func (r *EdgeRel) Forward(u int) []int {
	if u < 0 || u >= len(r.fwd) {
		return nil
	}
	return r.fwd[u]
}

func (r *EdgeRel) forward(u int) ([]int, []int32) { return r.Forward(u), nil }

// backward returns the sorted sources that reach v, building the reverse
// index from the forward lists on first use.
func (r *EdgeRel) backward(v int) ([]int, []int32) {
	r.revOnce.Do(func() {
		r.rev = make([][]int, len(r.fwd))
		for u, vs := range r.fwd {
			for _, w := range vs {
				r.rev[w] = append(r.rev[w], u) // u ascending ⇒ lists sorted
			}
		}
	})
	if v < 0 || v >= len(r.rev) {
		return nil, nil
	}
	return r.rev[v], nil
}

func (r *EdgeRel) scanNext(forward bool, c *scanCursor) (int, []int, []int32, bool) {
	list := r.forward
	if !forward {
		list = r.backward
	}
	for ; c.next < len(r.fwd); c.next++ {
		if ws, ds := list(c.next); len(ws) > 0 {
			c.next++
			return c.next - 1, ws, ds, true
		}
	}
	return 0, nil, nil, false
}

// PlanJoin returns the edge order for joining g over materialized per-edge
// relations with the node variables of pre already bound: JoinOrder over
// every edge. The relations are not read — the order is the pattern's and
// pre's.
func PlanJoin(g *pattern.Graph, _ []*EdgeRel, pre map[string]int) []int {
	order := make([]int, 0, len(g.Edges))
	for _, st := range JoinOrder(g.Edges, nil, boundSet(pre)) {
		order = append(order, st.Edge)
	}
	return order
}

// JoinRelations joins a relation-free pattern over precomputed per-edge
// relations, one per edge of g, visiting edges in the given order (see
// PlanJoin) with the node variables of pre pre-bound, and collects the output
// tuples; with boolOnly it stops at the first.
func JoinRelations(g *pattern.Graph, rels []*EdgeRel, order []int, pre map[string]int, boolOnly bool) *pattern.TupleSet {
	p := newPlan(false, len(order))
	for _, ei := range order {
		p.addAtom(rels[ei], g.Edges[ei].From, g.Edges[ei].To, 0)
	}
	p.seal(g.Out, pre, false)
	out := pattern.NewTupleSet()
	p.stream(nil, func(row []int32, _ int) bool {
		out.Append(row)
		return !boolOnly
	})
	out.Settle()
	return out
}

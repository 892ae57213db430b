package ecrpq

import (
	"slices"

	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
)

// The bounded engine's leaf join. Once Theorem 6 fixes a mapping v̄, the
// CXRPQ is a CRPQ (Lemma 11) over the atoms the engine instantiated, and
// exponentially many mappings join one pattern over different atoms. A Leaf
// compiles that pattern once per run — JoinOrder under the pre-bound
// variables, the plan's slots and read flags — and every mapping runs the
// one join executor over its own atoms (probeAtom), as every other
// evaluation does. What a join reads of an atom is resolved when the engine
// sets the atom on its edge (Leaf.Set): unranked, the store's complete table
// when the pattern reads both endpoints — read in place, the other direction
// by inversion — and the support when it reads one; ranked, the rows with
// costs the run searches for itself, one memo per atom shared by every
// mapping of the run.

// Leaf is a pattern compiled for the leaf joins of one bounded run, with the
// atoms of the mapping at hand set on its edges. It is not safe for
// concurrent use: a run joins through its one leaf, on its one goroutine.
type Leaf struct {
	ev       *evaluator // the run's: store, budget, ranked-ness and weight; no query
	from, to []bool     // per edge: whether the join reads its source, its target (pattern.Graph.Reads)
	plans    []*plan    // the join under pre, or one per seed variable with it bound
	orders   [][]int    // per plan: the edge of each step
	seeds    []string   // the seed variables, one per plan; nil unless seeded

	atoms  []probeAtom          // per edge, unranked: the atom set on it
	src    []*probeAtom         // per edge: the atom the join reads
	costed map[*Atom]*probeAtom // ranked: the run's memo of each atom's rows with costs
	s      search               // the join in progress (Join)
}

// NewLeaf compiles g for the leaf joins of one run over the atom store s
// under o: with the variables of pre bound or, seeded, once per source
// variable of g with that variable bound (StreamSeeded).
func NewLeaf(s *AtomStore, g *pattern.Graph, pre map[string]int, seeded bool, o Options) *Leaf {
	n := len(g.Edges)
	l := &Leaf{ev: &evaluator{db: s.db, ix: s.db.Index(), store: s, bud: o.Budget, ranked: o.Ranked, weight: o.Weight, lazy: true},
		atoms: make([]probeAtom, n), src: make([]*probeAtom, n)}
	if o.Ranked {
		l.costed = map[*Atom]*probeAtom{}
	}
	pres := []map[string]int{pre}
	if seeded {
		l.seeds, pres, pre = SourceVars(g), nil, map[string]int{}
		for _, z := range l.seeds {
			pres, pre[z] = append(pres, map[string]int{z: 0}), 0
		}
	}
	l.from, l.to = g.Reads(pre)
	for _, pre := range pres {
		p, order := newPlan(o.Ranked, n), make([]int, 0, n)
		for _, st := range JoinOrder(g.Edges, nil, boundSet(pre)) {
			e := g.Edges[st.Edge]
			p.addAtom(nil, e.From, e.To, 0)
			order = append(order, st.Edge)
		}
		p.seal(g.Out, pre, false)
		l.plans, l.orders = append(l.plans, p), append(l.orders, order)
	}
	return l
}

// Set sets a on edge ei and resolves what the join reads of it: ranked, the
// run's memo of its rows with costs; unranked, the store's complete table
// when both endpoints are read — searched for the rows the store lacks, once
// per label and revision — else the support of the endpoint read. It reports
// whether a has any pair: false prunes every mapping that sets it. A
// resolution the budget cut returns engine.ErrCanceled.
func (l *Leaf) Set(ei int, a *Atom) (bool, error) {
	ev := l.ev
	if ev.ranked {
		if l.src[ei] = l.costed[a]; l.src[ei] == nil {
			l.src[ei] = &probeAtom{ev: ev, atom: a}
			l.costed[a] = l.src[ei]
		}
		return ev.store.PathExists(a, ev.bud)
	}
	pa := &l.atoms[ei]
	*pa, l.src[ei] = probeAtom{ev: ev, atom: a}, pa
	if a.empty() || ev.ix.NumNodes() == 0 {
		return false, nil
	}
	var sup []uint64
	if l.from[ei] && l.to[ei] {
		sup = pa.complete()
	} else {
		sup = pa.support(!l.to[ei])
	}
	if sup == nil {
		return false, engine.ErrCanceled
	}
	return slices.ContainsFunc(sup, func(w uint64) bool { return w != 0 }), nil
}

// complete adopts the store's complete forward table, searching the rows it
// lacks first, and returns its support; nil when the budget cut the search.
// Should an eviction drop the table before it is adopted, the memo holds
// every row the search found, and its support is theirs.
func (p *probeAtom) complete() []uint64 {
	m := &p.fwd
	if p.adopt(true) {
		return m.sup
	}
	all := p.ev.nodes()
	rows := p.fetch(all, true)
	if m.at == nil { // cut: nothing indexed
		return nil
	}
	if !p.adopt(true) {
		m.sup = make([]uint64, (len(all)+63)/64)
		for u, r := range rows {
			if len(r.nodes) > 0 {
				bitSet(m.sup, u)
			}
		}
	}
	return m.sup
}

// plan returns plans[i] over the atoms set on its edges.
func (l *Leaf) plan(i int) *plan {
	p := l.plans[i]
	for k, ei := range l.orders[i] {
		p.steps[k].src = l.src[ei]
		if l.ev.ranked {
			p.steps[k].min = l.ev.minCost(l.src[ei].atom)
		}
	}
	return p
}

// Join starts the join of the atoms set on the edges with the variables of
// pre bound; Next pulls its rows.
func (l *Leaf) Join() { l.s.reset(l.plan(0), l.ev.bud) }

// Next returns the next output row of the join Join started, with its
// witness cost (0 unless ranked), in a row the leaf reuses; ok is false once
// the join is exhausted or the budget canceled. Rows are not deduplicated: a
// row can complete under several assignments.
func (l *Leaf) Next() ([]int32, int, bool) { return l.s.next() }

// Stream is Join, yielding each row until yield returns false.
func (l *Leaf) Stream(yield StreamFunc) {
	l.Join()
	l.s.drain(yield)
}

// StreamSeeded is Stream once per seed variable, bound to each node of nodes
// in turn. A false return from yield ends one run, not the others.
func (l *Leaf) StreamSeeded(nodes []int, yield StreamFunc) {
	for i, z := range l.seeds {
		l.plan(i).streamSeeded(z, nodes, l.ev.bud, yield)
	}
}

// AddLeaf adds a ranked root: the join of the atoms set on l's edges now,
// which later Sets do not change. l must have been compiled ranked.
func (a *AnyK) AddLeaf(l *Leaf) { a.addRoot(l.plan(0).clone()) }

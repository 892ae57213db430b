package ecrpq

import (
	"slices"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// A Leaf is one member of a union compiled for the join a request runs
// (Join): the drivers of union.go pull every member, of either union, as a
// leaf, and a witness is read off the leaf a match was found on
// (Leaf.witness). It comes in two forms.
//
// The query form (queryLeaf) is an ECRPQ^er — its atoms and its relation
// groups — bound to one database: a member of the Lemma 7 / Lemma 13 union of
// a vstar-free query, or a single query. The pattern form (NewLeaf) is the
// bounded engine's. Once Theorem 6 fixes a mapping v̄, the CXRPQ is a CRPQ
// (Lemma 11) over the atoms the engine instantiated, and exponentially many
// mappings join one pattern over different atoms. The pattern form compiles
// that pattern once per run — JoinOrder under the pre-bound variables, the
// plan's slots and read flags — and the engine sets each mapping's atoms on
// its edges (Leaf.Set), yielding the one leaf once per mapping; its evaluator
// holds the pattern and the atoms set, as the query form's holds the query and
// its atoms, so that either form reads a witness alike. What a join
// reads of an atom is resolved when the atom is set: unranked, the store's
// complete table when the pattern reads both endpoints — read in place, the
// other direction by inversion — and the support when it reads one; ranked,
// the rows with costs the run searches for itself, one memo per atom shared
// by every mapping of the run.

// Join is how a union driver has its members compiled (Members): under the
// budget, ranked-ness and weight of Options; with the variables of Pre bound
// (a check, see PreBind) or, Seeded, once per source variable with that
// variable bound; Lazy for a first answer rather than the whole set (see
// evaluator.lazy), which every driver but the set evaluation asks for; BindAll
// binding every variable, not only those the output reads, so that a witness
// can be read off the match (WitnessUnion). A pattern-form leaf is lazy
// whatever the join: its atoms are resolved when set.
type Join struct {
	Options
	Pre     map[string]int
	Seeded  bool
	Lazy    bool
	BindAll bool
}

// Leaf is a member compiled for one join. It is not safe for concurrent use:
// a request pulls its members on its one goroutine.
type Leaf struct {
	ev    evaluator // the query form's, or the run's: the pattern, with the atom set on each edge (unranked) in ev.atoms
	plans []*plan   // the join under Pre, or one per seed variable with it bound
	one   [1]*plan  // the storage of plans while there is one
	seeds []string  // the seed variables, one per plan; nil unless seeded
	cols  []int     // seeded: the source columns (seedCols)

	// The pattern form's: per edge, whether the join reads its source, its
	// target (pattern.Graph.Reads); per plan, the edge of each step; per
	// edge, the atom the join reads; ranked, the run's memo of each atom's
	// rows with costs.
	from, to []bool
	orders   [][]int
	src      []*probeAtom
	costed   map[*Atom]*probeAtom
}

// compile compiles the leaf's plans by build, one per pre-binding: with j
// Seeded, one per source variable of g — the seeds — with it bound, else j.Pre
// alone. It returns the union of the pre-bindings.
func (l *Leaf) compile(g *pattern.Graph, j Join, build func(pre map[string]int) *plan) map[string]int {
	l.plans = l.one[:0]
	if !j.Seeded {
		l.plans = append(l.plans, build(j.Pre))
		return j.Pre
	}
	all := map[string]int{}
	l.seeds = sourceVars(g)
	l.cols = seedCols(g, l.seeds)
	for _, z := range l.seeds {
		l.plans, all[z] = append(l.plans, build(map[string]int{z: 0})), 0
	}
	return all
}

// seedCols returns the source columns of g, whose source variables are
// seeds: the output positions of the output seeds, ascending, when every
// seed is reached along g's edges from one of them, else nil. A window that
// broke a witness bound a seed to a frontier node, and so each output seed
// it is reached from (see delta.go): the row holds a frontier node there.
func seedCols(g *pattern.Graph, seeds []string) []int {
	cols, reached := []int{}, map[string]bool{}
	for _, z := range seeds {
		if at := slices.Index(g.Out, z); at >= 0 {
			cols, reached[z] = append(cols, at), true
		}
	}
	for grew := true; grew; { // close reached under g's edges
		grew = false
		for _, e := range g.Edges {
			if reached[e.From] && !reached[e.To] {
				reached[e.To], grew = true, true
			}
		}
	}
	for _, z := range seeds {
		if !reached[z] {
			return nil
		}
	}
	slices.Sort(cols)
	return cols
}

// queryLeaf compiles q over db for j.
func queryLeaf(q *Query, db *graph.DB, j Join) (*Leaf, error) {
	l := &Leaf{}
	if err := l.ev.init(q, db, j.Options, j.Lazy); err != nil {
		return nil, err
	}
	l.compile(q.Pattern, j, func(pre map[string]int) *plan { return l.ev.compile(pre, j.BindAll) })
	return l, nil
}

// NewLeaf compiles g for the leaf joins of one bounded run over the atom
// store s under j; the run sets the atoms of each mapping on its edges (Set).
func NewLeaf(s *AtomStore, g *pattern.Graph, j Join) *Leaf {
	n := len(g.Edges)
	l := &Leaf{ev: evaluator{q: &Query{Pattern: g}, db: s.db, ix: s.db.Index(), store: s, atoms: make([]probeAtom, n),
		bud: j.Budget, ranked: j.Ranked, weight: j.Weight, lazy: true}, src: make([]*probeAtom, n)}
	if j.Ranked {
		l.costed = map[*Atom]*probeAtom{}
	}
	all := l.compile(g, j, func(pre map[string]int) *plan {
		p, order := newPlan(j.Ranked, n), make([]int, 0, n)
		for _, st := range JoinOrder(g.Edges, nil, boundSet(pre)) {
			e := g.Edges[st.Edge]
			p.addAtom(nil, e.From, e.To, 0)
			order = append(order, st.Edge)
		}
		p.seal(g.Out, pre, j.BindAll)
		l.orders = append(l.orders, order)
		return p
	})
	l.from, l.to = g.Reads(all)
	return l
}

// Set sets a on edge ei of a pattern-form leaf and resolves what the join
// reads of it: ranked, the run's memo of its rows with costs; unranked, the
// store's complete table when both endpoints are read — searched for the rows
// the store lacks, once per label and revision — else the support of the
// endpoint read. It reports whether a has any pair: false prunes every
// mapping that sets it. A resolution the budget cut returns
// engine.ErrCanceled.
func (l *Leaf) Set(ei int, a *Atom) (bool, error) {
	ev := &l.ev
	if ev.ranked {
		if l.src[ei] = l.costed[a]; l.src[ei] == nil {
			l.src[ei] = &probeAtom{ev: ev, atom: a}
			l.costed[a] = l.src[ei]
		}
		return ev.store.PathExists(a, ev.bud)
	}
	pa := &ev.atoms[ei]
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

// complete has the store's forward table hold every node's row, searching
// the rows it lacks, and returns its support; nil when the budget cut the
// search. The memo reads the table in place. An eviction between the
// store's look and its filing can drop rows the look found: the memo then
// asks again.
func (p *probeAtom) complete() []uint64 {
	for !p.view(true) && p.ev.ix.NumNodes() > 0 {
		if p.fetch(p.ev.nodes(), true) != nil {
			return nil
		}
	}
	return p.fwd.sup
}

// plan returns plans[i] over the atoms the leaf joins: its own, in the query
// form; those set on its edges, in the pattern form.
func (l *Leaf) plan(i int) *plan {
	p := l.plans[i]
	if l.orders == nil {
		return p
	}
	for k, ei := range l.orders[i] {
		p.steps[k].src = l.src[ei]
		if l.ev.ranked {
			p.steps[k].min = l.ev.minCost(l.src[ei].atom)
		}
	}
	return p
}

// join starts s on the leaf's join, with the variables of Pre bound.
func (l *Leaf) join(s *search) { l.ev.join(l.plan(0), s) }

// streamSeeded streams the join once per seed variable, bound to each node
// of nodes in turn, until the budget cancels.
func (l *Leaf) streamSeeded(nodes []int, yield StreamFunc) {
	for i, z := range l.seeds {
		l.plan(i).streamSeeded(z, nodes, l.ev.bud, yield)
	}
}

package cxrpq

import (
	"cxrpq/internal/automata"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// This file is the explain surface of the planning layer: the physical
// plan a Session would use for the query's conjunctive skeleton, rendered
// with variable names and per-step cardinality estimates. The plan is
// computed from the Σ*-relaxed classical approximation of each atom (the
// same relaxation the bounded engine prunes with) crossed with the
// database's per-label statistics, and cached in the session's cache epoch
// — so it is recomputed exactly when the DB revision moves.

// PlanStep is one entry of a PlanReport: the pattern edge placed at this
// plan position, how the join visits it, which of its endpoints the rest of
// the query reads (pattern.Graph.Reads; short of "pairs" an unranked
// evaluation computes a support, not a relation) and the cost estimates.
type PlanStep struct {
	Edge     int     `json:"edge"` // index into the query pattern's edges
	From     string  `json:"from"`
	To       string  `json:"to"`
	Label    string  `json:"label"` // the edge's xregex (original form)
	Mode     string  `json:"mode"`  // check | expand | expand-rev | scan
	Reads    string  `json:"reads"` // pairs | from | to | none: the endpoints something else reads
	EstPairs float64 `json:"est_pairs"`
	EstCost  float64 `json:"est_cost"`
	EstRows  float64 `json:"est_rows"`
}

// PlanTreeNode is one node of the join tree in a PlanReport, listed in
// parent-before-child order.
type PlanTreeNode struct {
	Edge   int      `json:"edge"`             // index into the query pattern's edges
	Parent int      `json:"parent"`           // parent's edge index; -1 for the root
	Shared []string `json:"shared,omitempty"` // join variables shared with the parent
}

// PlanReport is the humanly (and machine) readable physical plan of a
// prepared query bound to a database: the chosen join order with estimated
// cardinalities, plus the planner's rewrites — which atoms the
// containment-based minimization pass deletes, whether the (minimized)
// conjunct graph is acyclic and free-connex, its join tree, and which join
// strategy the evaluation takes.
type PlanReport struct {
	Fragment  string     `json:"fragment"`
	Revision  uint64     `json:"revision"`
	Steps     []PlanStep `json:"steps"`
	TotalCost float64    `json:"total_cost"`
	EstRows   float64    `json:"est_rows"`

	// MinimizedAtoms lists the edge indices the containment pass proves
	// redundant (evaluation skips them); Acyclic / FreeConnex classify the
	// conjunct graph that remains; JoinTree is its GYO join tree when
	// acyclic. Strategy is what the planner's gate (planner.Tuning.Strategy)
	// answers for the evaluation the fragment defaults to: for a vstar-free
	// query, Session.Eval — "yannakakis" when a member of its union runs the
	// semijoin program, "backtracking" otherwise — and for any other, the
	// leaf joins of the bounded evaluation, gated here on the estimates
	// above where the engine gates each on its exact relation sizes.
	MinimizedAtoms []int          `json:"minimized_atoms,omitempty"`
	Acyclic        bool           `json:"acyclic"`
	FreeConnex     bool           `json:"free_connex"`
	JoinTree       []PlanTreeNode `json:"join_tree,omitempty"`
	Strategy       string         `json:"strategy"`
}

// plannerPlan returns the session's cached physical plan for the query
// pattern, computing it on first use within the current cache epoch: each
// atom's label is Σ*-relaxed to a classical expression, compiled, and
// estimated against the database statistics; the planner then orders the
// atoms with no variables pre-bound, and its gate names the strategy.
func (s *Session) plannerPlan(sc *sessionCaches, sigma []rune) ([]planner.Atom, *planner.PlanSpec, error) {
	sc.planMu.Lock()
	defer sc.planMu.Unlock()
	if sc.planDone {
		return sc.planAtoms, sc.planSpec, sc.planErr
	}
	sc.planDone = true
	q, st := s.plan.q, s.db.Stats()
	atoms := make([]planner.Atom, len(q.Pattern.Edges))
	minAtoms := make([]planner.MinAtom, len(q.Pattern.Edges))
	refs := make([]planner.EdgeRef, len(q.Pattern.Edges))
	for i, e := range q.Pattern.Edges {
		m, err := xregex.Compile(xregex.Simplify(xregex.Relax(e.Label, nil)), sigma)
		if err != nil {
			sc.planErr = err
			return nil, nil, err
		}
		atoms[i] = planner.Atom{From: e.From, To: e.To, Est: planner.EstimateNFA(st, m)}
		refs[i] = planner.EdgeRef{From: e.From, To: e.To}
		minAtoms[i] = planner.MinAtom{From: e.From, To: e.To}
		if !xregex.HasVars(e.Label) {
			// Only variable-free atoms participate in minimization: the
			// relaxed NFA is then the atom's exact language. (The ecrpq
			// evaluator applies the same restriction via its entry caches.)
			minAtoms[i].Cache = automata.NewSubsetCache(m)
		}
	}
	drop := s.tune.Minimize(minAtoms, 0)
	for i, d := range drop {
		if d {
			sc.planMin = append(sc.planMin, i)
		}
	}
	if tree, ok := planner.BuildJoinTree(refs, drop); ok {
		sc.planTree = tree
		sc.planFC = planner.FreeConnex(refs, drop, q.Pattern.Out)
	}
	sc.planAtoms = atoms
	sc.planSpec = planner.Order(atoms, nil)
	if ms, err := s.plan.members(); err == nil {
		// Ask each member's evaluator, which gates on its own estimates; a
		// member that failed to translate or to compile runs nothing.
		for m, err := range queries(ms) {
			if err != nil {
				continue
			}
			if strat, err := ecrpq.StrategyOf(m, s.db, ecrpq.Options{Tuning: s.tune}); err == nil && strat == planner.Yannakakis {
				sc.planStrategy = strat
				break
			}
		}
	} else {
		sc.planStrategy, _ = s.tune.Strategy(planner.Join{Cost: sc.planSpec.Cost,
			Graph: func() ([]planner.EdgeRef, []bool) { return refs, drop }})
	}
	return sc.planAtoms, sc.planSpec, nil
}

// PlanReport returns the physical plan the session's evaluation paths
// derive from the current database revision: the planner-chosen join order
// over the query's atoms with estimated cardinalities. It is a debug/
// observability surface (the cxrpq-serve /plan endpoint serves it); the
// bounded engine's leaf joins refine the same model with exact relation
// counts per mapping.
func (s *Session) PlanReport() (*PlanReport, error) {
	sc, _, sigma := s.current()
	atoms, spec, err := s.plannerPlan(sc, sigma)
	if err != nil {
		return nil, err
	}
	rep := &PlanReport{
		Fragment:  s.plan.fragment,
		Revision:  s.db.Revision(),
		TotalCost: spec.Cost,
		EstRows:   spec.Rows,
	}
	sc.planMu.Lock()
	rep.Strategy = sc.planStrategy.String()
	rep.MinimizedAtoms = append([]int(nil), sc.planMin...)
	if tree := sc.planTree; tree != nil {
		rep.Acyclic = true
		rep.FreeConnex = sc.planFC
		for _, i := range tree.Order {
			p := -1
			if tree.Parent[i] >= 0 {
				p = tree.Parent[i]
			}
			rep.JoinTree = append(rep.JoinTree, PlanTreeNode{
				Edge: i, Parent: p,
				Shared: append([]string(nil), tree.Shared[i]...),
			})
		}
	}
	sc.planMu.Unlock()
	readFrom, readTo := s.plan.q.Pattern.Reads(nil, nil)
	for _, step := range spec.Steps {
		ei := step.Atom
		e := s.plan.q.Pattern.Edges[ei]
		reads := "pairs"
		switch {
		case !readFrom[ei] && !readTo[ei]:
			reads = "none"
		case !readTo[ei]:
			reads = "from"
		case !readFrom[ei]:
			reads = "to"
		}
		rep.Steps = append(rep.Steps, PlanStep{
			Edge:     ei,
			From:     e.From,
			To:       e.To,
			Label:    xregex.String(e.Label),
			Mode:     string(step.Mode),
			Reads:    reads,
			EstPairs: atoms[ei].Est.Pairs,
			EstCost:  step.Cost,
			EstRows:  step.Rows,
		})
	}
	return rep, nil
}

package cxrpq

import (
	"errors"
	"fmt"

	"cxrpq/internal/automata"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// This file is the prefix-incremental CXRPQ^≤k evaluation engine behind every
// bounded and log Request (Session.Do) and stream. The
// Theorem 6 guess of v̄ ∈ (Σ^≤k)^n is an enumeration in ≺-topological order
// in which nothing is listed in order to be tested and thrown away:
//
//  1. The images guessed for a variable are computed, not filtered
//     (candidates): one level-synchronous walk over the label index
//     (graph.DB.WalkPathWords: word → bitset of end nodes) steered by the
//     determinized union of the variable's definition bodies, with the
//     assigned prefix substituted and the rest relaxed to Σ*. A word no body
//     can continue is never extended, so the walk visits L(bodies) ∩
//     paths(D) and its dead-end fringe instead of every path word of length
//     ≤ k. It emits ε, then the matching words by length and alphabet; that
//     order is the enumeration order of every run, hence a bounded explain's
//     first witness and the order of streams. Lists are memoized per run by
//     the relaxed bodies' print.
//  2. An atom (pattern edge) is fully instantiated as soon as the prefix
//     covers all variables occurring in it — its Lemma 10 surgery is run and
//     what the leaf join reads of it resolved right then (ecrpq.Leaf.Set),
//     and an atom that matches no path of D prunes the entire subtree before
//     any deeper variable is guessed. Exponentially many mappings — of this
//     query and of every other one over the snapshot — agree on an atom's
//     instantiated label, so its pairs are shared through the database's
//     atom store (ecrpq.AtomStore) as complete row tables. An atom with a
//     node variable nothing else reads never gets one in an unranked run:
//     only its support.
//  3. An atom the prefix touches without determining is relaxed (relaxCut)
//     and asked one question: does it match any path of D at all? The
//     answer is an existence probe that stops at its first hit and one
//     stored bit per label (AtomStore.PathExists) — never a row. A
//     positive verdict survives inserts, a negative one — or one a removal
//     touched — is asked again.
//  4. A complete mapping is then a CRPQ (Lemma 11) over the atoms set on
//     the run's leaf — the pattern compiled once per run — and needs only
//     the executor's join over them (ecrpq.Leaf), not a fresh CRPQ
//     evaluation.
//
// The engine is split along the prepared-query boundary (plan.go /
// session.go): boundedPlan holds everything derivable from the query alone
// (the ≺-topological order and the instantiation/pruning/check schedule),
// computed once by Prepare; the atom store holds the per-database facts (row
// tables, supports, path-existence verdicts), shared across calls, sessions
// and concurrent engine runs. A boundedEngine is the per-call object tying one
// run's enumeration state and candidate lists to those two.
//
// The engine joins nothing itself: a run is the member source of the union of
// CRPQs the query is under the bound (Lemma 12), one member per mapping
// (boundedEngine.members), and the drivers of internal/ecrpq/union.go join
// the members — into one answer set, to the first witness, once per source
// variable seeded on a window's frontier, as a stream or as any-k roots —
// exactly as they join a vstar-free query's, or to the first witness read off
// the leaf, which an explanation completes with the mapping's images.
//
// EvalBoundedNaive (eval.go) remains the literal Theorem 6 rendering and the
// differential baseline: the two must agree on full tuple sets.

// boundedPlan is the immutable, database-independent part of the bounded
// engine: the enumeration order and the per-step instantiation, pruning and
// force-condition schedule. It is computed once per query by Prepare (or by
// the one-shot wrappers) and shared by every Session and engine run.
type boundedPlan struct {
	q *Query
	c CXRE

	vars []string // string variables in ≺-topological order

	edgeVars   [][]string       // per edge: sorted variables occurring in its label
	stepEdges  [][]int          // stepEdges[i]: edges determined once vars[:i] are assigned
	touchEdges [][]int          // touchEdges[i]: edges touched but not yet determined at step i
	stepChecks [][]string       // defined vars whose force-condition resolves at step i
	defEdges   map[string][]int // var -> edges syntactically defining it
	defined    map[string]bool  // tuple-level defined variables
	defBodies  map[string][]xregex.Node
	refAny     map[string]bool // free var: referenced anywhere at all
}

// planBounded computes q's bounded-evaluation schedule. The query is
// already validated (Prepare, the only caller's entry point, validates).
func planBounded(q *Query) (*boundedPlan, error) {
	c := q.CXRE()
	vars, err := xregex.TopoVars([]xregex.Node(c)...)
	if err != nil {
		return nil, err
	}
	p := &boundedPlan{
		q:          q,
		c:          c,
		vars:       vars,
		edgeVars:   make([][]string, len(c)),
		stepEdges:  make([][]int, len(vars)+1),
		touchEdges: make([][]int, len(vars)+1),
		stepChecks: make([][]string, len(vars)+1),
		defEdges:   map[string][]int{},
		defined:    c.DefinedVars(),
		defBodies:  map[string][]xregex.Node{},
		refAny:     map[string]bool{},
	}

	pos := map[string]int{}
	for i, x := range vars {
		pos[x] = i
	}
	nodes := []xregex.Node(c)
	all := catAll(c)
	for _, x := range vars {
		bodies := xregex.DefBodies(x, nodes...)
		p.defBodies[x] = bodies
		if len(bodies) == 0 {
			p.refAny[x] = xregex.ContainsRef(all, x)
		}
	}
	ready := make([]int, len(nodes))
	for ei, n := range nodes {
		vs := xregex.SortedVars(n)
		p.edgeVars[ei] = vs
		for _, x := range vs {
			if pos[x]+1 > ready[ei] {
				ready[ei] = pos[x] + 1
			}
		}
		p.stepEdges[ready[ei]] = append(p.stepEdges[ready[ei]], ei)
		for x := range xregex.DefinedVars(n) {
			p.defEdges[x] = append(p.defEdges[x], ei)
		}
		// Partial pruning schedule: re-relax an undetermined edge whenever
		// one of its variables was just assigned (and once up front, at
		// step 0, with everything relaxed).
		if ready[ei] > 0 {
			p.touchEdges[0] = append(p.touchEdges[0], ei)
		}
		for _, x := range vs {
			if pos[x]+1 < ready[ei] {
				p.touchEdges[pos[x]+1] = append(p.touchEdges[pos[x]+1], ei)
			}
		}
	}
	// The tuple-level Step 2 condition of Lemma 10 — a variable with a
	// non-empty image must have a surviving definition in SOME component —
	// resolves as soon as every component defining the variable has been
	// instantiated.
	for x, eis := range p.defEdges {
		last := 0
		for _, ei := range eis {
			if ready[ei] > last {
				last = ready[ei]
			}
		}
		p.stepChecks[last] = append(p.stepChecks[last], x)
	}
	return p, nil
}

// boundedEngine is one evaluation run: the plan plus the database binding,
// its atom store and the per-run budget and memos. All mutable enumeration
// state lives in boundedState, one per run.
type boundedEngine struct {
	p     *boundedPlan
	db    *graph.DB
	sigma []rune

	k     int              // image bound
	atoms *ecrpq.AtomStore // the database's atom facts, shared by every run over it

	// cands memoizes the candidate walk per relaxed definition bodies: every
	// prefix that agrees on the variables of x's bodies asks for the same list.
	cands *epochMap[string, []string]

	// bud is the caller's evaluation budget (nil = unlimited), threaded into
	// table sweeps and leaf joins, which unwind at level granularity once it
	// is spent.
	bud *engine.Budget

	// st is the run's enumeration, started by the first member asked for
	// (members): its assignment is the mapping of the member asked for last.
	st *boundedState
}

// boundedState is the mutable state of a run's enumeration: the partial
// assignment, the leaf join with the atom of each edge set on it and, per
// edge, the defined variables whose definitions survived the Lemma 10 cut.
// Entries for edge ei are valid whenever the current prefix covers ei's ready
// step.
//
// The enumeration itself is an explicit stack (next): frame i holds the
// candidate images of vars[i] under the prefix still to try.
type boundedState struct {
	e        *boundedEngine
	assign   map[string]string
	leaf     *ecrpq.Leaf
	survived []map[string]bool

	cands [][]string // per depth: the candidate images of vars[depth] not tried yet
	depth int        // the frame being advanced; -1 once the enumeration is done
	enter bool       // depth is entered next: its step is processed, its frame opened
}

// runMemoCap bounds the per-run memos of a bounded evaluation.
const runMemoCap = 1 << 16

// epochMap is the drop-all-on-overflow bounded cache pattern (the atom store
// drops its epoch the same way, on bytes): cap + whole-epoch drop. It backs a
// bounded run's memos, which one goroutine reads and writes.
type epochMap[K comparable, V any] struct {
	cap int
	m   map[K]V
}

func newEpochMap[K comparable, V any](cap int) *epochMap[K, V] {
	return &epochMap[K, V]{cap: cap, m: map[K]V{}}
}

// getOr returns the memoized value of key, computing and keeping it on a
// miss; a computation that fails keeps nothing.
func (c *epochMap[K, V]) getOr(key K, compute func() (V, error)) (V, error) {
	if v, ok := c.m[key]; ok {
		return v, nil
	}
	v, err := compute()
	if err == nil {
		if len(c.m) >= c.cap {
			c.m = map[K]V{}
		}
		c.m[key] = v
	}
	return v, err
}

// newBoundedEngine binds a bounded plan to a database for one run under bud
// (nil = unlimited). atoms is db's atom store (Session.boundedRun, the one
// caller, holds it), shared with every other run over the snapshot.
func newBoundedEngine(p *boundedPlan, db *graph.DB, k int, atoms *ecrpq.AtomStore, sigma []rune, bud *engine.Budget) (*boundedEngine, error) {
	if k < 0 {
		return nil, fmt.Errorf("cxrpq: negative image bound %d", k)
	}
	return &boundedEngine{p: p, db: db, sigma: sigma, k: k, atoms: atoms, cands: newEpochMap[string, []string](runMemoCap), bud: bud}, nil
}

// newState starts the run's enumeration and compiles its leaf for j.
func (e *boundedEngine) newState(j ecrpq.Join) *boundedState {
	ne, nv := len(e.p.c), len(e.p.vars)
	return &boundedState{
		e:        e,
		assign:   map[string]string{},
		leaf:     ecrpq.NewLeaf(e.atoms, e.p.q.Pattern, j),
		survived: make([]map[string]bool, ne),
		cands:    make([][]string, nv),
		enter:    true,
	}
}

// members is the run's member source for one request: its mappings in
// enumeration order, each the run's one leaf with the mapping's atoms set on
// it, compiled for the join the first member is asked for. The drivers ask
// for the members in order, once each. A failure ends the enumeration, and so
// does a spent budget, which is no failure: the driver reads the budget.
func (e *boundedEngine) members() ecrpq.Members {
	return func(_ int, j ecrpq.Join) (*ecrpq.Leaf, bool, error) {
		if e.st == nil {
			e.st = e.newState(j)
		}
		ok, err := e.st.next()
		if err = e.ignoreCanceled(err); err != nil {
			return nil, true, err
		}
		return e.st.leaf, ok, nil
	}
}

// instantiateEdge runs the Lemma 10 surgery for edge ei under the current
// (prefix) assignment — sound because all of ei's variables are assigned at
// its ready step — and sets the instantiated label's atom, which the atom
// store hands out once per label, on the edge of the state's leaf join: every
// mapping, of any query over the snapshot, that agrees on the label shares
// its automaton and its stored facts. It reports false when the subtree is
// pruned: the label is ∅, or it labels no path of D.
func (st *boundedState) instantiateEdge(ei int) (bool, error) {
	e := st.e
	cut, err := xregex.CutFailedDefs(e.p.c[ei], st.assign, e.match)
	if err != nil {
		return false, err
	}
	cut = xregex.Simplify(cut)
	var surv map[string]bool
	for _, x := range e.p.edgeVars[ei] {
		if !e.p.defined[x] || st.assign[x] == "" {
			continue
		}
		if xregex.ContainsDef(cut, x) {
			if surv == nil {
				surv = map[string]bool{}
			}
			surv[x] = true
			cut = xregex.Simplify(xregex.ForceVar(cut, x))
		}
	}
	st.survived[ei] = surv
	inst := xregex.Simplify(xregex.SubstituteAllVars(cut, st.assign))
	a, err := e.atoms.Atom(inst, e.sigma)
	if err != nil {
		return false, err
	}
	return st.leaf.Set(ei, a)
}

// relaxCut over-approximates the Lemma 10 instantiation of n under a
// ≺-downward-closed partial assignment: assigned definitions are cut exactly
// (their bodies only contain ≺-smaller, hence assigned, variables) and
// replaced by their images, while unassigned definitions and references are
// relaxed to Σ*. The result is classical and its language contains the exact
// instantiated language of every completion of the prefix, so a label that
// matches no path of D prunes the whole subtree. match tests an image
// against its cut body.
func relaxCut(n xregex.Node, assign map[string]string, match xregex.Matcher) (xregex.Node, error) {
	switch t := n.(type) {
	case *xregex.Ref:
		return xregex.Relax(n, assign), nil
	case *xregex.Def:
		w, ok := assign[t.Var]
		if !ok {
			return xregex.AnyWord(), nil
		}
		cut, err := relaxCut(t.Body, assign, match)
		if err != nil {
			return nil, err
		}
		if m, err := match(xregex.Simplify(cut), w); err != nil || !m {
			return &xregex.Empty{}, err
		}
		return xregex.Word(w), nil
	}
	return xregex.MapKids(n, func(k xregex.Node) (xregex.Node, error) { return relaxCut(k, assign, match) })
}

// pruneRelaxed checks the Σ*-relaxed partial instantiation of edge ei
// against D. It reports false when the relaxed atom labels no path at all —
// no completion of the current prefix can satisfy the atom. Only that one
// bit is asked for and kept (AtomStore.PathExists); the relaxed label's
// rows are never searched.
func (st *boundedState) pruneRelaxed(ei int) (bool, error) {
	e := st.e
	relaxed, err := relaxCut(e.p.c[ei], st.assign, e.match)
	if err != nil {
		return false, err
	}
	a, err := e.atoms.Atom(xregex.Simplify(relaxed), e.sigma)
	if err != nil {
		return false, err
	}
	return e.atoms.PathExists(a, e.bud)
}

// processStep instantiates the edges that become determined once vars[:i]
// are assigned, applies the force-condition checks that resolve at this
// step, and runs the relaxed-atom pruning for edges the step touched but
// did not determine. It reports false when the whole subtree is pruned.
func (st *boundedState) processStep(i int) (bool, error) {
	e := st.e
	for _, ei := range e.p.stepEdges[i] {
		ok, err := st.instantiateEdge(ei)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, ei := range e.p.touchEdges[i] {
		ok, err := st.pruneRelaxed(ei)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, x := range e.p.stepChecks[i] {
		if st.assign[x] == "" {
			continue
		}
		found := false
		for _, ei := range e.p.defEdges[x] {
			if st.survived[ei][x] {
				found = true
				break
			}
		}
		if !found {
			// no surviving definition can produce the non-empty image: the
			// instantiated tuple is (∅, …, ∅)
			return false, nil
		}
	}
	return true, nil
}

// match is the run's membership test: whether the classical expression n
// matches w, through the subset cache of the atom the store holds for n —
// the definition bodies and filters of every mapping, and of every query
// over the database, share their automata there.
func (e *boundedEngine) match(n xregex.Node, w string) (bool, error) {
	a, err := e.atoms.Atom(n, e.sigma)
	if err != nil {
		return false, err
	}
	return a.Accepts(w), nil
}

// onlyEps is the candidate list of a variable nothing defines or references.
var onlyEps = []string{""}

// candidates lists the images worth guessing for x under a prefix assignment
// covering every ≺-smaller variable: ε, then — in length-then-lexicographic
// order — the words of length ≤ k that label a path of D (images are factors
// of matching words) and, for a defined x, match one of its definition
// bodies with the assigned variables substituted and the rest relaxed to Σ*
// (all variables in a definition body precede x in ≺-topological order, so
// the test is exact relative to the prefix). The list is L(bodies) ∩
// paths(D) computed as a product: one walk over the label index steered by
// the determinized union of the relaxed bodies, so a word no body can
// continue is never extended, let alone listed. A variable without a
// definition walks unfiltered when it is referenced and has only ε when it
// is not. Lists are memoized per run by the print of the relaxed bodies,
// which is exactly the signature of the assignment restricted to the
// bodies' variables.
func (e *boundedEngine) candidates(x string, assign map[string]string) ([]string, error) {
	var filter xregex.Node // nil: every path word
	key := "\x00"
	if bodies := e.p.defBodies[x]; len(bodies) > 0 {
		kids := make([]xregex.Node, len(bodies))
		for i, body := range bodies {
			kids[i] = xregex.Relax(body, assign)
		}
		if filter = kids[0]; len(kids) > 1 {
			filter = &xregex.Alt{Kids: kids}
		}
		key = xregex.String(filter)
	} else if !e.p.refAny[x] {
		return onlyEps, nil
	}
	return e.cands.getOr(key, func() ([]string, error) {
		if filter == nil {
			return e.db.PathLabels(e.k, 0), nil
		}
		a, err := e.atoms.Atom(filter, e.sigma)
		if err != nil {
			return nil, err
		}
		c, ws := a.Subset(), []string{""}
		e.db.WalkPathWords(e.k, c.Start(),
			func(id int32, sym rune) (int32, bool) {
				id = c.Step(id, int32(sym))
				return id, id != automata.Dead
			},
			func(w string, id int32) bool {
				if c.Final(id) {
					ws = append(ws, w)
				}
				return true
			})
		return ws, nil
	})
}

// next runs the enumeration to its next complete mapping, with every atom
// instantiated on the leaf; false when the enumeration is exhausted or the
// budget spent. Entering depth i processes step i — prefix pruning — and opens
// frame i; a frame whose candidates are spent unassigns its variable and
// returns to the one below.
func (st *boundedState) next() (bool, error) {
	e, n := st.e, len(st.e.p.vars)
	for st.depth >= 0 && !e.bud.Canceled() {
		i := st.depth
		if st.enter {
			st.enter = false
			ok, err := st.processStep(i)
			if ok && err == nil && i < n {
				st.cands[i], err = e.candidates(e.p.vars[i], st.assign)
			}
			if err != nil {
				st.depth = -1
				return false, err
			}
			if ok && i == n {
				st.depth = n - 1
				return true, nil
			}
			if !ok {
				st.depth--
				continue
			}
		}
		if cs := st.cands[i]; len(cs) > 0 {
			st.assign[e.p.vars[i]], st.cands[i] = cs[0], cs[1:]
			st.depth, st.enter = i+1, true
		} else {
			delete(st.assign, e.p.vars[i])
			st.depth--
		}
	}
	st.depth = -1
	return false, nil
}

// ignoreCanceled filters engine.ErrCanceled out of a run's error flow:
// budget truncation is not a failure — the accumulated output is a sound
// partial answer, and the caller consults its own Budget.Err() to learn
// whether the run was cut short.
func (e *boundedEngine) ignoreCanceled(err error) error {
	if errors.Is(err, engine.ErrCanceled) {
		return nil
	}
	return err
}

package cxrpq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
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
//     covers all variables occurring in it — its Lemma 10 surgery and its
//     reachability relation are computed right then, and an atom that
//     matches no path of D prunes the entire subtree before any deeper
//     variable is guessed. Exponentially many mappings — of this query and of
//     every other one over the snapshot — agree on an atom's instantiated
//     label, so relations are shared through the database's atom store
//     (ecrpq.AtomStore). An atom with a node variable nothing else reads never
//     gets one in an unranked run: only its support (relationFor).
//  3. An atom the prefix touches without determining is relaxed (relaxCut)
//     and asked one question: does it match any path of D at all? The
//     answer is an existence probe that stops at its first hit and one
//     stored bit per label (AtomStore.PathExists) — never a relation. A
//     positive verdict survives inserts, a negative one — or one a removal
//     touched — is asked again.
//  4. A complete mapping then needs only a join over the cached relations
//     (ecrpq.JoinRelationsStream), not a fresh CRPQ evaluation. Settling a
//     carried answer runs the same enumeration and joins each mapping once
//     per source variable, pre-bound to each node of the window's frontier
//     (seed).
//
// The engine is split along the prepared-query boundary (plan.go /
// session.go): boundedPlan holds everything derivable from the query alone
// (the ≺-topological order and the instantiation/pruning/check schedule),
// computed once by Prepare; the atom store holds the per-database facts (atom
// relations, supports, path-existence verdicts), shared across calls, sessions
// and concurrent engine runs. A boundedEngine is the per-call object tying one
// run's enumeration state, candidate lists and result sink to those two.
//
// Disjoint enumeration subtrees are fanned across the engine worker pool
// with the same stop-flag short-circuit protocol as the vstar-free path.
//
// EvalBoundedNaive (eval.go) remains the literal Theorem 6 rendering and the
// differential baseline: the two must agree on full tuple sets.

const (
	// boundedMaxJobs caps the number of enumeration-prefix jobs generated
	// for the parallel fan-out.
	boundedMaxJobs = 4096
)

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
// its atom store, the per-run options and the result sink. All mutable
// enumeration state lives in boundedState, one per worker subtree.
type boundedEngine struct {
	p        *boundedPlan
	db       *graph.DB
	sigma    []rune
	boolOnly bool
	seq      bool           // force sequential enumeration (witness search)
	pre      map[string]int // pre-bound node variables (a bounded check)
	order    []int          // the leaf joins' edge order (ecrpq.PlanJoin), the same for every mapping

	// readFrom/readTo: per edge, whether another atom, the output or pre reads
	// its From / To node variable (pattern.Graph.Reads); see relationFor.
	readFrom, readTo []bool

	k       int              // image bound
	atoms   *ecrpq.AtomStore // the database's atom facts, shared by every run over it
	workers int              // the session's fan width (ecrpq.Options.Workers)

	// cands memoizes the candidate walk per relaxed definition bodies: every
	// prefix that agrees on the variables of x's bodies asks for the same list.
	cands *epochMap[string, []string]

	// bud is the caller's evaluation budget (nil = unlimited); fanBud is its
	// per-run fork, threaded into relation builds and leaf joins so that both
	// budget exhaustion AND the Boolean first-witness stop unwind in-flight
	// BFS sweeps at level granularity. fanBud is stopped (not bud) on first
	// witness, so sibling cancellation never spends the caller's budget.
	bud    *engine.Budget
	fanBud *engine.Budget

	// ranked requests BFS first-hit levels on every atom relation and
	// ranked leaf joins, which report them as witness costs.
	ranked bool

	// weight generalizes ranked witness cost from edge count to a pluggable
	// per-edge-label weight. Weighted relations have no identity (a function
	// can't key the atom store), so the store files them nowhere and
	// relationFor memoizes them per run in wrels.
	weight engine.Weight
	wrels  *epochMap[*ecrpq.Atom, *ecrpq.EdgeRel]

	// anyk, when set, redirects every complete mapping's leaf join onto the
	// shared incremental any-k priority queue (one AddJoin per mapping,
	// relations snapshotted) instead of executing it: run() then only
	// enumerates mappings and builds relations, and the consumer pulls
	// ranked rows lazily from the queue. Implies seq.
	anyk *ecrpq.AnyK

	// yield, when set, streams each leaf join's rows (with witness cost)
	// instead of merging into out; a false return stops the run. Streaming
	// runs force seq — yield is called from one goroutine only. Tuples are
	// NOT deduplicated across mappings here; the consumer owns dedup.
	yield ecrpq.StreamFunc

	// leaf consumes a complete mapping; the default joins the cached atom
	// relations, a bounded explain swaps in a witness search.
	leaf func(st *boundedState) error

	// seeds, when set, pre-binds each source variable of the pattern in turn
	// to each of its nodes in every leaf join (seed); seedOrders holds the
	// join order per variable, in the order of ecrpq.SourceVars.
	seeds      []int
	seedVars   []string
	seedOrders [][]int

	stop atomic.Bool

	outMu sync.Mutex
	out   *pattern.TupleSet
}

// boundedState is the mutable state of one enumeration subtree: the partial
// assignment and, per edge, the instantiated label, its relation and the
// defined variables whose definitions survived the Lemma 10 cut. Entries for
// edge ei are valid whenever the current prefix covers ei's ready step.
type boundedState struct {
	e        *boundedEngine
	assign   map[string]string
	insts    []xregex.Node
	rels     []*ecrpq.EdgeRel
	survived []map[string]bool
}

// runMemoCap bounds the per-run memos of a bounded evaluation.
const runMemoCap = 1 << 16

// epochMap is the drop-all-on-overflow bounded cache pattern (the atom store
// drops its epoch the same way, on bytes): mutex + cap + whole-epoch drop. It
// backs a bounded run's memos.
type epochMap[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]V
}

func newEpochMap[K comparable, V any](cap int) *epochMap[K, V] {
	return &epochMap[K, V]{cap: cap, m: map[K]V{}}
}

func (c *epochMap[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *epochMap[K, V]) put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.cap {
		c.m = map[K]V{}
	}
	c.m[key] = v
}

// getOr returns the memoized value of key, computing and keeping it on a
// miss; a computation that fails keeps nothing.
func (c *epochMap[K, V]) getOr(key K, compute func() (V, error)) (V, error) {
	if v, ok := c.get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err == nil {
		c.put(key, v)
	}
	return v, err
}

// newBoundedEngine binds a bounded plan to a database for one run under bud
// (nil = unlimited). atoms is db's atom store (Session.boundedRun, the one
// caller, holds it), shared with every other run over the snapshot.
func newBoundedEngine(p *boundedPlan, db *graph.DB, k int, boolOnly bool, pre map[string]int, atoms *ecrpq.AtomStore, sigma []rune, workers int, bud *engine.Budget) (*boundedEngine, error) {
	if k < 0 {
		return nil, fmt.Errorf("cxrpq: negative image bound %d", k)
	}
	e := &boundedEngine{
		p:        p,
		db:       db,
		sigma:    sigma,
		boolOnly: boolOnly,
		pre:      pre,
		order:    ecrpq.PlanJoin(p.q.Pattern, nil, pre),
		k:        k,
		atoms:    atoms,
		workers:  workers,
		cands:    newEpochMap[string, []string](runMemoCap),
		wrels:    newEpochMap[*ecrpq.Atom, *ecrpq.EdgeRel](runMemoCap),
		bud:      bud,
		fanBud:   bud.Fork(), // nil-safe: a standalone fork when unbudgeted
		out:      pattern.NewTupleSet(),
	}
	e.readFrom, e.readTo = p.q.Pattern.Reads(pre)
	e.leaf = e.joinLeaf
	return e, nil
}

// seed makes the run join each complete mapping once per source variable of
// the pattern, pre-bound to each node of seeds: the rows of the answer with a
// witness that binds some atom's source to a seed. Relations are resolved
// with every source variable read (pattern.Graph.Reads with them in pre): an
// atom whose source nothing else reads would otherwise be resolved as its
// target support, which a join with that source bound cannot read.
func (e *boundedEngine) seed(seeds []int) {
	e.seeds, e.seedVars = seeds, ecrpq.SourceVars(e.p.q.Pattern)
	pre := map[string]int{}
	for _, z := range e.seedVars {
		pre[z] = 0
		e.seedOrders = append(e.seedOrders, ecrpq.PlanJoin(e.p.q.Pattern, nil, map[string]int{z: 0}))
	}
	e.readFrom, e.readTo = e.p.q.Pattern.Reads(pre)
}

func (e *boundedEngine) newState() *boundedState {
	ne := len(e.p.c)
	return &boundedState{
		e:        e,
		assign:   map[string]string{},
		insts:    make([]xregex.Node, ne),
		rels:     make([]*ecrpq.EdgeRel, ne),
		survived: make([]map[string]bool, ne),
	}
}

// instantiateEdge runs the Lemma 10 surgery for edge ei under the current
// (prefix) assignment — sound because all of ei's variables are assigned at
// its ready step — and resolves the edge's reachability relation through the
// atom store. It reports false when the subtree is pruned: the label is
// ∅, or it labels no path of D.
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
	st.insts[ei] = inst
	rel, err := e.relationFor(ei, inst)
	if err != nil {
		return false, err
	}
	st.rels[ei] = rel
	return !rel.Empty(), nil
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
// relation is never built.
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
	return e.atoms.PathExists(a, e.fanBud)
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

// relationFor resolves the relation of edge ei's instantiated label through
// its atom, which the atom store hands out once per label — the sharing
// point for all mappings, of any query over the snapshot, that agree on the
// label: they share its automaton and its stored relation. The build honors
// the run's fan budget (a truncated build surfaces as engine.ErrCanceled and
// installs nothing) and requests BFS levels when the run is ranked. An
// unranked run resolves an edge with an endpoint nothing reads through its
// support on the other one (AtomStore.Support) and never builds its pairs.
func (e *boundedEngine) relationFor(ei int, inst xregex.Node) (*ecrpq.EdgeRel, error) {
	a, err := e.atoms.Atom(inst, e.sigma)
	if err != nil {
		return nil, err
	}
	if !e.ranked && !(e.readFrom[ei] && e.readTo[ei]) {
		return e.atoms.Support(a, e.readTo[ei], e.fanBud)
	}
	if e.ranked && e.weight != nil {
		// Weighted levels never enter the store: two queries with different
		// weights would collide on the same atom. The per-run memo still
		// shares the build across this run's mappings.
		return e.wrels.getOr(a, func() (*ecrpq.EdgeRel, error) {
			return e.atoms.Relation(a, engine.ReachOpts{Budget: e.fanBud, Weight: e.weight})
		})
	}
	return e.atoms.Relation(a, engine.ReachOpts{Budget: e.fanBud, Levels: e.ranked})
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

// rec enumerates images for vars[i:] depth-first with prefix pruning.
func (st *boundedState) rec(i int) error {
	e := st.e
	if e.stop.Load() || e.fanBud.Canceled() {
		return nil
	}
	if i == len(e.p.vars) {
		return e.leaf(st)
	}
	x := e.p.vars[i]
	cands, err := e.candidates(x, st.assign)
	if err != nil {
		return err
	}
	for _, w := range cands {
		if e.stop.Load() || e.fanBud.Canceled() {
			break
		}
		st.assign[x] = w
		ok, err := st.processStep(i + 1)
		if err != nil {
			return err
		}
		if ok {
			if err := st.rec(i + 1); err != nil {
				return err
			}
		}
	}
	delete(st.assign, x)
	return nil
}

// joinLeaf is the default leaf: join the stored atom relations, in the
// engine's one edge order, and merge the answers into the shared result set.
func (e *boundedEngine) joinLeaf(st *boundedState) error {
	if e.anyk != nil {
		// Deferred ranked leaf (incremental any-k): snapshot this mapping's
		// relations — boundedState reuses its slices across mappings — and
		// register the join as one root on the shared priority queue. The
		// join itself runs lazily as the consumer pulls ranked rows.
		e.anyk.AddJoin(e.p.q.Pattern, append([]*ecrpq.EdgeRel(nil), st.rels...), e.order, e.pre)
		return nil
	}
	if e.yield != nil {
		// Streaming leaf (Session.Stream): rows flow to the consumer as the
		// backtracking completes them. Runs are sequential (e.seq), so the
		// yield needs no locking.
		ecrpq.JoinRelationsStream(e.p.q.Pattern, st.rels, e.order, e.pre, ecrpq.Options{Budget: e.fanBud, Ranked: e.ranked},
			func(row []int32, cost int) bool {
				if !e.yield(row, cost) {
					e.stop.Store(true)
					return false
				}
				return true
			})
		return nil
	}
	var rows []int32 // collected outside the critical section; run settles e.out
	n := 0
	collect := func(row []int32, _ int) bool {
		rows, n = append(rows, row...), n+1
		return !e.boolOnly
	}
	if e.seeds != nil {
		for i, z := range e.seedVars {
			ecrpq.JoinRelationsSeeded(e.p.q.Pattern, st.rels, e.seedOrders[i], z, e.seeds, ecrpq.Options{Budget: e.fanBud}, collect)
		}
	} else {
		ecrpq.JoinRelationsStream(e.p.q.Pattern, st.rels, e.order, e.pre, ecrpq.Options{Budget: e.fanBud}, collect)
	}
	if n == 0 {
		return nil
	}
	e.outMu.Lock()
	for w, i := len(rows)/n, 0; i < n; i++ {
		e.out.Append(rows[i*w : (i+1)*w])
	}
	e.outMu.Unlock()
	if e.boolOnly {
		// First witness: raise the stop flag for enumeration subtrees and
		// stop the fan budget so sibling workers' in-flight BFS sweeps and
		// joins unwind at level granularity instead of running to completion.
		e.stop.Store(true)
		e.fanBud.Stop()
	}
	return nil
}

// run drives the enumeration: sequentially for a single worker (or when a
// deterministic first witness is required), otherwise by expanding candidate
// assignment prefixes into jobs and fanning the disjoint subtrees across the
// engine worker pool with Boolean short-circuit. The answer is settled on
// every return, a truncated one too.
func (e *boundedEngine) run() (*pattern.TupleSet, error) {
	defer e.out.Settle()
	st := e.newState()
	ok, err := st.processStep(0)
	if err != nil || !ok {
		return e.out, e.ignoreCanceled(err)
	}
	if len(e.p.vars) == 0 {
		return e.out, e.ignoreCanceled(e.leaf(st))
	}

	pool := engine.Workers(e.workers, 1<<16)
	if pool == 1 || e.seq {
		return e.out, e.ignoreCanceled(st.rec(0))
	}

	// Expand prefixes breadth-first (candidate-filtered only; the workers
	// replay them with the full atom pruning, which is cache-warm by then)
	// until there are enough disjoint subtrees to keep the pool busy.
	jobs := [][]string{nil}
	depth := 0
	for depth < len(e.p.vars) && len(jobs) < 2*pool {
		var next [][]string
		partial := map[string]string{}
		for _, p := range jobs {
			clear(partial)
			for j, w := range p {
				partial[e.p.vars[j]] = w
			}
			cands, err := e.candidates(e.p.vars[depth], partial)
			if err != nil {
				return nil, err
			}
			for _, w := range cands {
				np := make([]string, depth+1)
				copy(np, p)
				np[depth] = w
				next = append(next, np)
			}
		}
		if len(next) > boundedMaxJobs {
			break // the shallower split stands
		}
		jobs = next
		depth++
	}

	var errMu sync.Mutex
	errAt := -1
	var firstErr error
	engine.Fan(e.workers, len(jobs), func(ji int) {
		if e.stop.Load() {
			return
		}
		st := e.newState()
		ok, err := st.processStep(0)
		for j := 0; err == nil && ok && j < depth; j++ {
			st.assign[e.p.vars[j]] = jobs[ji][j]
			ok, err = st.processStep(j + 1)
		}
		if err == nil && ok {
			err = st.rec(depth)
		}
		if err = e.ignoreCanceled(err); err != nil {
			errMu.Lock()
			if errAt < 0 || ji < errAt {
				errAt, firstErr = ji, err
			}
			errMu.Unlock()
			e.stop.Store(true)
			e.fanBud.Stop()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return e.out, nil
}

// ignoreCanceled filters engine.ErrCanceled out of a run's error flow:
// budget truncation (and the Boolean first-witness sibling stop, which rides
// the same fork) is not a failure — the accumulated output is a sound
// partial answer, and the caller consults its own Budget.Err() to learn
// whether the run was cut short.
func (e *boundedEngine) ignoreCanceled(err error) error {
	if errors.Is(err, engine.ErrCanceled) {
		return nil
	}
	return err
}

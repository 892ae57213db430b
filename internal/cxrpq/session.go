package cxrpq

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"sync"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
)

// This file is the evaluate-many half of the prepared-query subsystem: a
// Session is a Plan bound to one database. What it owns is what is per query
// text — the physical plan memo and a bounded result cache; the atom facts
// its evaluations derive (relations, supports, path-existence verdicts)
// belong to the database revision and live in its atom store
// (ecrpq.AtomStore), which every session bound to the same *graph.DB shares.
// All Session methods are safe for concurrent use.
//
// Invalidation contract: the database must not be mutated while a call is
// in flight. After a (quiescent) mutation, the next call observes the
// bumped graph.DB revision, has the store brought up to it (once, whoever
// asks first — see ecrpq.AtomStore for the matrix) and keeps its own memos
// only across a net-empty window. Session.ApplyDelta applies a batched
// mutation and maintains eagerly; Invalidate drops the database's store too.
// Results returned by Eval/EvalBounded may be served from the result cache and
// shared between callers — treat the returned TupleSet as immutable.

const (
	// runMemoCap bounds the per-run memos of a bounded evaluation.
	runMemoCap = 1 << 16
	// defaultResultCap bounds the session result cache.
	defaultResultCap = 256
)

// SessionOptions tunes a Session. The zero value selects the default; a
// negative ResultCacheCap disables result caching.
type SessionOptions struct {
	ResultCacheCap int // whole-result entries (default 256; < 0 disables)
}

// epochMap is the drop-all-on-overflow bounded cache pattern (xregex's match
// cache follows the same recipe): mutex + cap + whole-epoch drop + hit/miss
// counters. It backs the result cache and a bounded run's memos.
type epochMap[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	m      map[K]V
	hits   uint64
	misses uint64
}

func newEpochMap[K comparable, V any](cap int) *epochMap[K, V] {
	return &epochMap[K, V]{cap: cap, m: map[K]V{}}
}

func (c *epochMap[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
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

func (c *epochMap[K, V]) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}

// sessionCaches is one epoch of what a call works against. A fresh one is
// swapped in whenever the database revision moves, so nothing in it can
// outlive the data it was derived from.
type sessionCaches struct {
	// atoms is the atom store of the bound revision: the database's, not the
	// session's — every session on the same *graph.DB holds the same one.
	atoms *ecrpq.AtomStore

	// The physical plan of the query's conjunctive skeleton (see
	// planreport.go): cached per epoch like everything else, so it is
	// recomputed exactly when the DB revision moves.
	planMu    sync.Mutex
	planDone  bool
	planAtoms []planner.Atom
	planSpec  *planner.PlanSpec
	planMin   []int             // atoms Minimize would drop (report only)
	planTree  *planner.JoinTree // join tree of the kept atoms; nil if cyclic
	planFC    bool              // free-connex w.r.t. the output variables
	planErr   error

	planStrategy planner.Strategy // what the gate answers for the evaluation (see PlanReport)
}

// resultKey names one cached call result: the operation ("eval", "bool",
// "check" or "explain"), its image bound — unbounded for the fragment-
// dispatched operations over the union — and its tuple argument
// (Tuple.Key; empty without one).
type resultKey struct {
	op    string
	k     int
	tuple string
}

// unbounded is the resultKey image bound of the union operations.
const unbounded = -1

// resultCache memoizes whole call results by resultKey; it lives inside one
// cache epoch, so revision bumps clear it with the plan memo. A nil
// *resultCache is valid and disabled.
type resultCache struct {
	epochMap[resultKey, any]
}

func newResultCache(cap int) *resultCache {
	if cap < 0 {
		return nil
	}
	if cap == 0 {
		cap = defaultResultCap
	}
	rc := &resultCache{}
	rc.cap = cap
	rc.m = map[resultKey]any{}
	return rc
}

func (c *resultCache) get(key resultKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	return c.epochMap.get(key)
}

func (c *resultCache) put(key resultKey, v any) {
	if c == nil {
		return
	}
	c.epochMap.put(key, v)
}

// Session is a Plan bound to one database: the compile-once/evaluate-many
// handle of the prepared-query subsystem. Create one with Plan.Bind and
// share it freely between goroutines; see the file comment for the
// invalidation contract.
type Session struct {
	plan *Plan
	db   *graph.DB
	opts SessionOptions

	// tune travels with every evaluation the session starts. It is the zero
	// value — production — unless a test bound the session through
	// export_test.go; nothing a deployment can reach sets it.
	tune planner.Tuning

	mu      sync.Mutex // guards the epoch fields below
	bound   bool
	rev     uint64
	sigma   []rune
	caches  *sessionCaches
	results *resultCache
}

// Bind binds the plan to a database with default cache options.
func (p *Plan) Bind(db *graph.DB) *Session { return p.BindOpts(db, SessionOptions{}) }

// BindOpts binds the plan to a database with explicit cache options.
func (p *Plan) BindOpts(db *graph.DB, opts SessionOptions) *Session {
	return &Session{plan: p, db: db, opts: opts}
}

// current returns this call's cache epoch, moving the session to the
// database's revision first when a mutation left it behind. Calls already in
// flight keep the epoch they started with.
func (s *Session) current() (*sessionCaches, *resultCache, []rune) {
	rev := s.db.Revision()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bound || rev != s.rev {
		s.moveLocked(ecrpq.Atoms(s.db))
	}
	return s.caches, s.results, s.sigma
}

// moveLocked binds the session to atoms, its database's store at the current
// revision. The facts are the store's to carry across the move; of its own
// memos the session keeps everything across a net-empty window — the plan
// memo and the results hold for the same graph — and nothing otherwise.
func (s *Session) moveLocked(atoms *ecrpq.AtomStore) {
	kept := s.bound && atoms.SameGraph(s.rev)
	if s.bound, s.rev = true, s.db.Revision(); kept {
		return
	}
	s.sigma = mergeDBAlphabet(s.db, s.plan.c)
	s.caches = &sessionCaches{atoms: atoms}
	s.results = newResultCache(s.opts.ResultCacheCap)
}

// ApplyDelta applies a batched mutation to the bound database and eagerly
// brings its atom store and the session up to it, so the delta cost is paid
// at write time instead of on the next query. Like every mutation it must be
// quiescent: no session call (on any session bound to the same DB) may be in
// flight. Other sessions bound to the database adopt the maintained store on
// their next call.
func (s *Session) ApplyDelta(delta graph.Delta) (*graph.DeltaInfo, error) {
	info, err := s.db.ApplyDelta(delta)
	if err != nil {
		return info, err
	}
	s.current()
	return info, nil
}

// Fork returns a new Session bound to db — a successor of the current
// binding, typically the next graph.Snapshot view of the same lineage. The
// receiver is never modified, so in-flight and parked readers of the old
// session (open stream cursors included) keep their pinned epoch on their
// pinned revision. This is the MVCC publish step of the serving layer: the
// writer forks the pooled sessions onto each new snapshot at write time, so
// no reader ever waits on maintenance — and the atom store is carried onto
// the new view by the first fork, the others adopt it (AtomStore.CarryTo).
// At the same revision the epoch is shared outright.
func (s *Session) Fork(db *graph.DB) *Session {
	ns := &Session{plan: s.plan, db: db, opts: s.opts, tune: s.tune}
	s.mu.Lock()
	ns.bound, ns.rev, ns.sigma, ns.caches, ns.results = s.bound, s.rev, s.sigma, s.caches, s.results
	s.mu.Unlock()
	if !ns.bound {
		return ns // never-used receiver: the fork binds lazily on first use
	}
	// Outside s.mu — the receiver's readers do not wait for the delta pass —
	// and without ns.mu: ns is not yet shared.
	if atoms := ns.caches.atoms.CarryTo(db); db.Revision() != ns.rev {
		ns.moveLocked(atoms)
	}
	return ns
}

// Invalidate drops every memo of the session and the atom store of its
// database unconditionally — no delta maintenance, the next call starts a
// fresh epoch. Calling it is never required for correctness after a quiescent
// DB mutation (the revision check does it), but it releases memory
// immediately and covers callers that mutated derived state out of band.
func (s *Session) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bound = false
	s.caches = nil
	s.results = nil
	s.db.Derived(func(any) any { return nil })
}

// DB returns the bound database.
func (s *Session) DB() *graph.DB { return s.db }

// Plan returns the prepared plan the session evaluates.
func (s *Session) Plan() *Plan { return s.plan }

// Fragment returns the plan's fragment classification.
func (s *Session) Fragment() string { return s.plan.fragment }

// SessionStats is a point-in-time snapshot of a session's counters and of
// the atom store of its database (shared: other sessions move its numbers,
// and its lineage's counters say how every revision move was taken).
type SessionStats struct {
	Revision     uint64
	Fragment     string
	Atoms        ecrpq.AtomStats
	ResultHits   uint64
	ResultMisses uint64
	ResultSize   int
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	sc, rc := s.caches, s.results
	st := SessionStats{Revision: s.rev, Fragment: s.plan.fragment}
	s.mu.Unlock()
	if sc != nil {
		st.Atoms = sc.atoms.Stats()
	}
	if rc != nil {
		st.ResultHits, st.ResultMisses, st.ResultSize = rc.stats()
	}
	return st
}

// unionOp runs one operation over the plan's union of ECRPQ^er (every
// vstar-free query is one: Plan.members) through the result cache. Only a
// complete answer is kept: a failed or truncated run returns what run returned
// — for a set, the sound partial rows — with the error and caches nothing.
func unionOp[T any](s *Session, op string, t pattern.Tuple, bud *engine.Budget, run func(iter.Seq[member], ecrpq.Options) (T, error)) (T, error) {
	_, rc, _ := s.current()
	key := resultKey{op, unbounded, t.Key()}
	if v, ok := rc.get(key); ok {
		return v.(T), nil
	}
	ms, err := s.plan.members()
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := run(ms, ecrpq.Options{Budget: bud, Tuning: s.tune})
	if err == nil && bud.Err() == nil {
		rc.put(key, v)
	}
	return v, err
}

// Eval evaluates a vstar-free query (classical and simple ones included) by
// the Theorem 2 algorithm: the union of its ECRPQ^er members. It is the
// Session counterpart of the package-level Eval.
func (s *Session) Eval() (*pattern.TupleSet, error) { return s.evalBudget(nil) }

// evalBudget is Eval under an optional budget. On truncation the sound
// partial set is returned together with engine.ErrCanceled.
func (s *Session) evalBudget(bud *engine.Budget) (*pattern.TupleSet, error) {
	return unionOp(s, "eval", nil, bud, func(ms iter.Seq[member], o ecrpq.Options) (*pattern.TupleSet, error) {
		return ecrpq.EvalUnionWith(queries(ms), s.db, o)
	})
}

// EvalBool decides D |= q, short-circuiting on the first matching member.
func (s *Session) EvalBool() (bool, error) { return s.evalBoolBudget(nil) }

// evalBoolBudget is EvalBool under an optional budget. Every member runs the
// lazy (chunked-sweep) search, so the first witness returns without
// materializing full relations. A canceled budget with no witness yields
// (false, engine.ErrCanceled).
func (s *Session) evalBoolBudget(bud *engine.Budget) (bool, error) {
	return unionOp(s, "bool", nil, bud, func(ms iter.Seq[member], o ecrpq.Options) (bool, error) {
		return ecrpq.EvalUnionBoolWith(queries(ms), s.db, o)
	})
}

// EvalVsf is Eval: every query Eval accepts is a vstar-free one.
func (s *Session) EvalVsf() (*pattern.TupleSet, error) { return s.Eval() }

// EvalVsfBool is EvalBool.
func (s *Session) EvalVsfBool() (bool, error) { return s.EvalBool() }

// Check decides t̄ ∈ q(D) for a vstar-free query.
func (s *Session) Check(t pattern.Tuple) (bool, error) { return s.checkBudget(t, nil) }

// checkBudget is Check under an optional budget: one pre-bound lazy search
// per member, first match wins (ecrpq.CheckUnionWith). A canceled budget with
// no witness yields (false, engine.ErrCanceled).
func (s *Session) checkBudget(t pattern.Tuple, bud *engine.Budget) (bool, error) {
	return unionOp(s, "check", t, bud, func(ms iter.Seq[member], o ecrpq.Options) (bool, error) {
		return ecrpq.CheckUnionWith(queries(ms), s.db, t, o)
	})
}

// Explain searches for one match (optionally constrained to output tuple t;
// pass nil for any match) and reconstructs its witness, for any vstar-free
// query. For unrestricted queries use ExplainBounded.
func (s *Session) Explain(t pattern.Tuple) (*Explanation, bool, error) {
	return s.explainBudget(t, nil)
}

// explainBudget is Explain under an optional budget: the members are searched
// in order (ecrpq.FindWitness) and the first with a witness wins, whatever a
// member before it failed with; its translation takes the witness back to the
// query. A canceled budget with no witness yields (nil, false,
// engine.ErrCanceled). What is cached is the explanation, nil for no match.
func (s *Session) explainBudget(t pattern.Tuple, bud *engine.Budget) (*Explanation, bool, error) {
	ex, err := unionOp(s, "explain", t, bud, func(ms iter.Seq[member], o ecrpq.Options) (*Explanation, error) {
		var failed error
		for m := range ms {
			w, ok, err := (*ecrpq.Witness)(nil), false, m.err
			if err == nil {
				w, ok, err = ecrpq.FindWitness(m.tr.Query, s.db, t, o)
			}
			if ok {
				return s.explanation(buildExplanation(s.plan.q, m.tr, m.repl, w)), nil
			}
			if failed == nil {
				failed = err
			}
			if errors.Is(err, engine.ErrCanceled) {
				break // so would every later member be
			}
		}
		return nil, failed
	})
	return ex, ex != nil, err
}

// explanation attaches the session's physical plan to a witness (best effort:
// the witness stands alone).
func (s *Session) explanation(ex *Explanation) *Explanation {
	ex.Plan, _ = s.PlanReport()
	return ex
}

// boundedRun binds the plan's bounded schedule (Theorem 6) to the session's
// database and its atom store for one run under bud: the one constructor of
// every bounded evaluation, check, explanation and stream.
func (s *Session) boundedRun(k int, boolOnly bool, pre map[string]int, bud *engine.Budget) (*boundedEngine, error) {
	sc, _, sigma := s.current()
	bp, err := s.plan.boundedPlanFor()
	if err != nil {
		return nil, err
	}
	return newBoundedEngine(bp, s.db, k, boolOnly, pre, sc.atoms, sigma, s.tune, bud)
}

// boundedOp runs one operation of the bounded engine through the result
// cache, as unionOp does for the union. run reports its value and whether it
// found a witness, which makes a Boolean, check or explain answer definitive
// whatever the budget cut afterwards (the first-witness sibling stop rides the
// same budget fork). Any other truncated run returns its value — for a set,
// the sound partial rows — with engine.ErrCanceled. Only the answer of a run
// the budget did not touch is cached.
func boundedOp[T any](s *Session, op string, k int, t pattern.Tuple, boolOnly bool, pre map[string]int, bud *engine.Budget, run func(*boundedEngine) (v T, found bool, err error)) (T, error) {
	_, rc, _ := s.current()
	key := resultKey{op, k, t.Key()}
	if v, ok := rc.get(key); ok {
		return v.(T), nil
	}
	var zero T
	e, err := s.boundedRun(k, boolOnly, pre, bud)
	if err != nil {
		return zero, err
	}
	v, found, err := run(e)
	if err != nil {
		return zero, err
	}
	if berr := bud.Err(); berr != nil {
		if found {
			return v, nil
		}
		return v, berr
	}
	rc.put(key, v)
	return v, nil
}

// EvalBounded evaluates the query under the CXRPQ^≤k semantics (Theorem 6)
// through the session's result cache and its database's atom store.
func (s *Session) EvalBounded(k int) (*pattern.TupleSet, error) {
	return s.evalBoundedBudget(k, false, nil)
}

// EvalBoundedBool decides D |=^≤k q, short-circuiting on the first mapping.
func (s *Session) EvalBoundedBool(k int) (bool, error) {
	res, err := s.evalBoundedBudget(k, true, nil)
	return err == nil && res.Len() > 0, err
}

// EvalLog evaluates the query under CXRPQ^log semantics (Corollary 1).
func (s *Session) EvalLog() (*pattern.TupleSet, error) {
	return s.EvalBounded(logBound(s.db))
}

// EvalLogBool decides D |=^log q.
func (s *Session) EvalLogBool() (bool, error) {
	return s.EvalBoundedBool(logBound(s.db))
}

// evalBoundedBudget is the bounded evaluation under an optional budget. A
// truncated run returns the sound partial set with engine.ErrCanceled —
// except in Boolean mode with a witness already found.
func (s *Session) evalBoundedBudget(k int, boolOnly bool, bud *engine.Budget) (*pattern.TupleSet, error) {
	op := "eval"
	if boolOnly {
		op = "bool"
	}
	return boundedOp(s, op, k, nil, boolOnly, nil, bud, func(e *boundedEngine) (*pattern.TupleSet, bool, error) {
		res, err := e.run()
		return res, boolOnly && res.Len() > 0, err
	})
}

// CheckBounded decides t̄ ∈ q^≤k(D) (Theorem 6 semantics) through the
// same caches: the output variables are pre-bound, so each leaf join
// only searches for one extension of the tuple.
func (s *Session) CheckBounded(k int, t pattern.Tuple) (bool, error) {
	return s.checkBoundedBudget(k, t, nil)
}

// checkBoundedBudget is CheckBounded under an optional budget; a canceled
// budget with no witness is unknown and yields (false, engine.ErrCanceled).
func (s *Session) checkBoundedBudget(k int, t pattern.Tuple, bud *engine.Budget) (bool, error) {
	if len(t) != len(s.plan.q.Pattern.Out) {
		return false, fmt.Errorf("cxrpq: tuple arity %d, query arity %d", len(t), len(s.plan.q.Pattern.Out))
	}
	pre := map[string]int{}
	for i, z := range s.plan.q.Pattern.Out {
		v := t[i]
		if v < 0 || v >= s.db.NumNodes() {
			return false, fmt.Errorf("cxrpq: node id %d out of range", v)
		}
		if prev, ok := pre[z]; ok && prev != v {
			return false, nil // same output variable bound to two nodes
		}
		pre[z] = v
	}
	return boundedOp(s, "check", k, t, true, pre, bud, func(e *boundedEngine) (bool, bool, error) {
		res, err := e.run()
		ok := err == nil && res.Len() > 0
		return ok, ok, err
	})
}

// ExplainBounded searches for one match under CXRPQ^≤k semantics and
// reconstructs its witness. It runs the bounded engine sequentially — so
// the witness is the first one in enumeration order — with a leaf that
// searches the instantiated CRPQ for a concrete path witness instead of
// joining cached relations; the engine's subtree pruning applies unchanged.
func (s *Session) ExplainBounded(k int, t pattern.Tuple) (*Explanation, bool, error) {
	return s.explainBoundedBudget(k, t, nil)
}

// explainBoundedBudget is ExplainBounded under an optional budget; a canceled
// budget with no witness yields (nil, false, engine.ErrCanceled).
func (s *Session) explainBoundedBudget(k int, t pattern.Tuple, bud *engine.Budget) (*Explanation, bool, error) {
	ex, err := boundedOp(s, "explain", k, t, false, nil, bud, func(e *boundedEngine) (*Explanation, bool, error) {
		e.seq = true
		q := s.plan.q
		var found *Explanation
		e.leaf = func(st *boundedState) error {
			g := &pattern.Graph{Out: append([]string(nil), q.Pattern.Out...)}
			for i, pe := range q.Pattern.Edges {
				g.Edges = append(g.Edges, pattern.Edge{From: pe.From, To: pe.To, Label: st.insts[i]})
			}
			w, ok, err := ecrpq.FindWitness(&ecrpq.Query{Pattern: g}, s.db, t, ecrpq.Options{Budget: e.fanBud, Tuning: e.tune})
			if err != nil || !ok {
				return err
			}
			found = s.explanation(&Explanation{NodeOf: w.NodeOf, Words: w.Words, Images: maps.Clone(st.assign)})
			e.stop.Store(true)
			return nil
		}
		_, err := e.run()
		return found, found != nil, err
	})
	return ex, ex != nil, err
}

// Request is one operation of an EvalBatch call.
type Request struct {
	Op        string        // "eval", "bool", "check" or "explain"
	Semantics string        // "" or "auto": fragment dispatch; "bounded": ≤K semantics; "log": log semantics
	K         int           // image bound for Semantics == "bounded" (k = 0 is legal: ε-only images)
	Tuple     pattern.Tuple // check/explain argument (nil explains any match)

	// Budget optionally bounds the evaluation (deadline, row cap, context
	// cancellation — see engine.Budget); nil is unlimited. A truncated eval
	// returns the sound partial tuples found so far with
	// Err == engine.ErrCanceled (check errors.Is); a truncated bool, check or
	// explain with no witness reports the same error (the answer is unknown).
	Budget *engine.Budget
}

// Response is the result of one batch Request. Exactly the fields relevant
// to the request's Op are set.
type Response struct {
	Tuples      *pattern.TupleSet // eval
	OK          bool              // bool/check outcome; explain: match found
	Explanation *Explanation      // explain
	Err         error
}

// semantics resolves the Semantics/K pair of a Request or of StreamOptions:
// ""/"auto" dispatches by fragment, "bounded" evaluates under image bound k,
// "log" under the log bound of the session's database.
func (s *Session) semantics(name string, k int) (bounded bool, bound int, err error) {
	switch name {
	case "", "auto":
		return false, 0, nil
	case "bounded":
		return true, k, nil
	case "log":
		return true, logBound(s.db), nil
	}
	return false, 0, fmt.Errorf("cxrpq: unknown semantics %q", name)
}

// Do executes one request against the session.
func (s *Session) Do(req Request) Response {
	bounded, k, err := s.semantics(req.Semantics, req.K)
	if err != nil {
		return Response{Err: err}
	}
	switch req.Op {
	case "eval":
		var res *pattern.TupleSet
		if bounded {
			res, err = s.evalBoundedBudget(k, false, req.Budget)
		} else {
			res, err = s.evalBudget(req.Budget)
		}
		return Response{Tuples: res, OK: res != nil && res.Len() > 0, Err: err}
	case "bool":
		var ok bool
		if bounded {
			res, berr := s.evalBoundedBudget(k, true, req.Budget)
			ok, err = res != nil && res.Len() > 0, berr
		} else {
			ok, err = s.evalBoolBudget(req.Budget)
		}
		return Response{OK: ok, Err: err}
	case "check":
		var ok bool
		if bounded {
			ok, err = s.checkBoundedBudget(k, req.Tuple, req.Budget)
		} else {
			ok, err = s.checkBudget(req.Tuple, req.Budget)
		}
		return Response{OK: ok, Err: err}
	case "explain":
		var ex *Explanation
		var ok bool
		if bounded {
			ex, ok, err = s.explainBoundedBudget(k, req.Tuple, req.Budget)
		} else {
			ex, ok, err = s.explainBudget(req.Tuple, req.Budget)
		}
		return Response{Explanation: ex, OK: ok, Err: err}
	default:
		return Response{Err: fmt.Errorf("cxrpq: unknown batch op %q", req.Op)}
	}
}

// EvalBatch executes the requests concurrently across the engine worker
// pool and returns the responses in request order. The requests share the
// session's caches and the atom store, so overlapping work is done once.
func (s *Session) EvalBatch(reqs []Request) []Response {
	out := make([]Response, len(reqs))
	engine.Fan(s.tune.Workers, len(reqs), func(i int) {
		out[i] = s.Do(reqs[i])
	})
	return out
}

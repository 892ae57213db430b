package cxrpq

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// This file is the evaluate-many half of the prepared-query subsystem: a
// Session is a Plan bound to one database. What it owns is what is per query
// text — a bounded result cache; the atom facts
// its evaluations derive (relations, supports, path-existence verdicts)
// belong to the database revision and live in its atom store
// (ecrpq.AtomStore), which every session bound to the same *graph.DB shares.
// A query runs through exactly two operations: Do, one Request answered
// whole, and Stream (stream.go), a pull cursor; PlanReport (planreport.go)
// reports the join order without evaluating. All Session methods are safe for
// concurrent use.
//
// Invalidation contract: the database must not be mutated while a call is
// in flight. After a (quiescent) mutation, the next call observes the
// bumped graph.DB revision, has the store brought up to it (once, whoever
// asks first — see ecrpq.AtomStore for the matrix) and keeps its own memos
// only across a net-empty window. Session.ApplyDelta applies a batched
// mutation and maintains eagerly; Invalidate drops the database's store too.
// A Response may be served from the result cache and shared between callers —
// treat its TupleSet as immutable.

const (
	// runMemoCap bounds the per-run memos of a bounded evaluation.
	runMemoCap = 1 << 16
	// resultCap bounds the session result cache, in whole Responses.
	resultCap = 256
)

// epochMap is the drop-all-on-overflow bounded cache pattern (the atom
// store drops its epoch the same way, on bytes): mutex + cap + whole-epoch
// drop + hit/miss counters. It backs the result cache and a bounded run's
// memos.
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
	c.putLocked(key, v)
}

func (c *epochMap[K, V]) putLocked(key K, v V) {
	if len(c.m) >= c.cap {
		c.m = map[K]V{}
	}
	c.m[key] = v
}

// file returns the value of key, filing fresh under it first if there is
// none. It counts neither a hit nor a miss: the caller counts what it reads of
// the value (count).
func (c *epochMap[K, V]) file(key K, fresh V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	c.putLocked(key, fresh)
	return fresh
}

// count records one hit or miss; a nil map counts nothing.
func (c *epochMap[K, V]) count(hit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
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

// resultKey names one cached Response: the operation ("eval", "bool",
// "check", "explain", or "ranked" for the ranked prefix of Session.Stream),
// its image bound — unbounded for the fragment-dispatched operations over the
// union, a value no bounded request can carry (Session.semantics refuses
// k < 0) — and its tuple argument (Tuple.Key; empty without one). The result
// cache lives inside one epoch, so revision bumps clear it.
type resultKey struct {
	op    string
	k     int
	tuple string
}

// unbounded is the resultKey image bound of the union operations.
const unbounded = -1

// Session is a Plan bound to one database: the compile-once/evaluate-many
// handle of the prepared-query subsystem. Create one with Plan.Bind and
// share it freely between goroutines; see the file comment for the
// invalidation contract.
type Session struct {
	plan *Plan
	db   *graph.DB

	// workers is the fan width of every evaluation the session starts
	// (ecrpq.Options.Workers). It is zero — GOMAXPROCS, production — unless a
	// test bound the session through export_test.go; nothing a deployment
	// can reach sets it.
	workers int

	// The epoch a call works against, swapped whenever the database revision
	// moves, so nothing in it can outlive the data it was derived from. atoms
	// is the atom store of the bound revision: the database's, not the
	// session's — every session on the same *graph.DB holds the same one.
	mu      sync.Mutex // guards the epoch fields below
	bound   bool
	rev     uint64
	sigma   []rune
	atoms   *ecrpq.AtomStore
	results *epochMap[resultKey, Response]
}

// Bind binds the plan to a database.
func (p *Plan) Bind(db *graph.DB) *Session { return &Session{plan: p, db: db} }

// epoch is one call's view of the session: the atom store, result cache and
// alphabet of the revision the call started on.
type epoch struct {
	atoms   *ecrpq.AtomStore
	results *epochMap[resultKey, Response]
	sigma   []rune
}

// current returns this call's epoch, moving the session to the database's
// revision first when a mutation left it behind. Calls already in flight
// keep the epoch they started with.
func (s *Session) current() epoch {
	rev := s.db.Revision()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bound || rev != s.rev {
		s.moveLocked(ecrpq.Atoms(s.db))
	}
	return epoch{s.atoms, s.results, s.sigma}
}

// moveLocked binds the session to atoms, its database's store at the current
// revision. The facts are the store's to carry across the move; of its own
// memos the session keeps the results across a net-empty window — they hold
// for the same graph — and nothing otherwise.
func (s *Session) moveLocked(atoms *ecrpq.AtomStore) {
	kept := s.bound && atoms.SameGraph(s.rev)
	if s.bound, s.rev = true, s.db.Revision(); kept {
		return
	}
	s.sigma = mergeDBAlphabet(s.db, s.plan.c)
	s.atoms = atoms
	s.results = newEpochMap[resultKey, Response](resultCap)
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
	ns := &Session{plan: s.plan, db: db, workers: s.workers}
	s.mu.Lock()
	ns.bound, ns.rev, ns.sigma, ns.atoms, ns.results = s.bound, s.rev, s.sigma, s.atoms, s.results
	s.mu.Unlock()
	if !ns.bound {
		return ns // never-used receiver: the fork binds lazily on first use
	}
	// Outside s.mu — the receiver's readers do not wait for the delta pass —
	// and without ns.mu: ns is not yet shared.
	if atoms := ns.atoms.CarryTo(db); db.Revision() != ns.rev {
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
	s.atoms = nil
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
	atoms, rc := s.atoms, s.results
	st := SessionStats{Revision: s.rev, Fragment: s.plan.fragment}
	s.mu.Unlock()
	if atoms != nil {
		st.Atoms = atoms.Stats()
	}
	if rc != nil {
		st.ResultHits, st.ResultMisses, st.ResultSize = rc.stats()
	}
	return st
}

// explanation attaches the session's join order to a witness (best effort:
// the witness stands alone).
func (s *Session) explanation(ex *Explanation) *Explanation {
	ex.Plan, _ = s.PlanReport()
	return ex
}

// boundedRun binds the plan's bounded schedule (Theorem 6) to the session's
// database and the atom store of ep for one run under bud: the one
// constructor of every bounded evaluation, check, explanation and stream.
func (s *Session) boundedRun(ep epoch, k int, boolOnly bool, pre map[string]int, bud *engine.Budget) (*boundedEngine, error) {
	bp, err := s.plan.boundedPlanFor()
	if err != nil {
		return nil, err
	}
	return newBoundedEngine(bp, s.db, k, boolOnly, pre, ep.atoms, ep.sigma, s.workers, bud)
}

// Request is one operation against a Session: one of the paper's evaluation
// problems (§2.3) — Eval, Bool-Eval, Check — or explain, under one of its
// semantics.
type Request struct {
	Op        string        // "eval", "bool", "check" or "explain"
	Semantics string        // "" or "auto": fragment dispatch; "bounded": ≤K semantics; "log": log semantics
	K         int           // image bound for Semantics == "bounded" (k = 0 is legal: ε-only images; k < 0 is refused)
	Tuple     pattern.Tuple // check/explain argument (nil explains any match)

	// Budget optionally bounds the evaluation (deadline, context
	// cancellation — see engine.Budget); nil is unlimited. A truncated eval
	// returns the sound partial tuples found so far with
	// Err == engine.ErrCanceled (check errors.Is); a truncated bool, check or
	// explain with no witness reports the same error (the answer is unknown).
	Budget *engine.Budget
}

// Response is the result of one Request. Exactly the fields relevant to the
// request's Op are set. A Response may be served from the session's result
// cache and shared between callers: treat Tuples as immutable.
type Response struct {
	Tuples      *pattern.TupleSet // eval
	OK          bool              // bool/check outcome; explain: match found
	Explanation *Explanation      // explain
	Err         error

	ranked *rankedPrefix // the "ranked" entry: the prefix ranked streams share
}

// semantics resolves the Semantics/K pair of a Request or of StreamOptions:
// ""/"auto" dispatches by fragment (the union, image bound unbounded),
// "bounded" evaluates under image bound k ≥ 0, "log" under the log bound of
// the session's database.
func (s *Session) semantics(name string, k int) (bounded bool, bound int, err error) {
	switch name {
	case "", "auto":
		return false, unbounded, nil
	case "bounded":
		if k < 0 {
			return false, 0, fmt.Errorf("cxrpq: negative image bound k = %d", k)
		}
		return true, k, nil
	case "log":
		return true, logBound(s.db), nil
	}
	return false, 0, fmt.Errorf("cxrpq: unknown semantics %q", name)
}

// Do executes one request against the session: the semantics are resolved,
// the result cache is asked once, and on a miss the union arm (every
// vstar-free query is a union of ECRPQ^er: Plan.members) or the bounded arm
// (Theorem 6) runs the operation. Only a complete answer is kept: an error,
// or a budget the run ran into, caches nothing.
func (s *Session) Do(req Request) Response {
	bounded, k, err := s.semantics(req.Semantics, req.K)
	if err != nil {
		return Response{Err: err}
	}
	t := req.Tuple
	switch req.Op {
	case "eval", "bool":
		t = nil
	case "check", "explain":
	default:
		return Response{Err: fmt.Errorf("cxrpq: unknown op %q", req.Op)}
	}
	ep := s.current()
	key := resultKey{req.Op, k, t.Key()}
	if resp, ok := ep.results.get(key); ok {
		return resp
	}
	var resp Response
	if bounded {
		resp = s.doBounded(ep, req.Op, k, t, req.Budget)
	} else {
		resp = s.doUnion(req.Op, t, req.Budget)
	}
	if resp.Err == nil && req.Budget.Err() == nil {
		ep.results.put(key, resp)
	}
	return resp
}

// doUnion runs op over the plan's union of ECRPQ^er. A truncated eval
// returns the sound partial set with engine.ErrCanceled; bool and check run
// the lazy (chunked-sweep) search per member, first witness wins. Explain
// searches the members in order (ecrpq.FindWitness) and the first with a
// witness wins, whatever a member before it failed with; its translation
// takes the witness back to the query.
func (s *Session) doUnion(op string, t pattern.Tuple, bud *engine.Budget) Response {
	ms, err := s.plan.members()
	if err != nil {
		return Response{Err: err}
	}
	o := ecrpq.Options{Budget: bud, Workers: s.workers}
	switch op {
	case "eval":
		res, err := ecrpq.EvalUnionWith(queries(ms), s.db, o)
		return Response{Tuples: res, OK: res != nil && res.Len() > 0, Err: err}
	case "bool":
		ok, err := ecrpq.EvalUnionBoolWith(queries(ms), s.db, o)
		return Response{OK: ok, Err: err}
	case "check":
		ok, err := ecrpq.CheckUnionWith(queries(ms), s.db, t, o)
		return Response{OK: ok, Err: err}
	}
	var failed error
	for m := range ms {
		w, ok, err := (*ecrpq.Witness)(nil), false, m.err
		if err == nil {
			w, ok, err = ecrpq.FindWitness(m.tr.Query, s.db, t, o)
		}
		if ok {
			return Response{OK: true, Explanation: s.explanation(buildExplanation(s.plan.q, m.tr, m.repl, w))}
		}
		if failed == nil {
			failed = err
		}
		if errors.Is(err, engine.ErrCanceled) {
			break // so would every later member be
		}
	}
	return Response{Err: failed}
}

// doBounded runs op on the bounded engine under image bound k. Check pre-binds
// the output variables, so each leaf join only searches for one extension of
// the tuple; explain runs the engine sequentially — the witness is the first
// in enumeration order — with a leaf that searches the instantiated CRPQ for
// a path witness instead of joining stored relations. A found witness makes a
// bool, check or explain answer definitive whatever the budget cut afterwards
// (the first-witness sibling stop rides a fork of the budget); any other
// truncated run returns its value — for eval, the sound partial rows — with
// engine.ErrCanceled.
func (s *Session) doBounded(ep epoch, op string, k int, t pattern.Tuple, bud *engine.Budget) Response {
	var pre map[string]int
	if op == "check" {
		out := s.plan.q.Pattern.Out
		if len(t) != len(out) {
			return Response{Err: fmt.Errorf("cxrpq: tuple arity %d, query arity %d", len(t), len(out))}
		}
		pre = map[string]int{}
		for i, z := range out {
			v := t[i]
			if v < 0 || v >= s.db.NumNodes() {
				return Response{Err: fmt.Errorf("cxrpq: node id %d out of range", v)}
			}
			if prev, ok := pre[z]; ok && prev != v {
				return Response{} // same output variable bound to two nodes
			}
			pre[z] = v
		}
	}
	e, err := s.boundedRun(ep, k, op == "bool" || op == "check", pre, bud)
	if err != nil {
		return Response{Err: err}
	}
	var found *Explanation
	if op == "explain" {
		e.seq = true
		q := s.plan.q
		e.leaf = func(st *boundedState) error {
			g := &pattern.Graph{Out: append([]string(nil), q.Pattern.Out...)}
			for i, pe := range q.Pattern.Edges {
				g.Edges = append(g.Edges, pattern.Edge{From: pe.From, To: pe.To, Label: st.insts[i]})
			}
			w, ok, err := ecrpq.FindWitness(&ecrpq.Query{Pattern: g}, s.db, t, ecrpq.Options{Budget: e.fanBud})
			if err != nil || !ok {
				return err
			}
			found = s.explanation(&Explanation{NodeOf: w.NodeOf, Words: w.Words, Images: maps.Clone(st.assign)})
			e.stop.Store(true)
			return nil
		}
	}
	res, err := e.run()
	if err != nil {
		return Response{Err: err}
	}
	resp := Response{OK: res.Len() > 0}
	switch op {
	case "eval":
		resp.Tuples = res
	case "explain":
		resp.OK, resp.Explanation = found != nil, found
	}
	if berr := bud.Err(); berr != nil && (op == "eval" || !resp.OK) {
		resp.Err = berr
	}
	return resp
}

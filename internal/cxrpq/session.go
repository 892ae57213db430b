package cxrpq

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"weak"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// This file is the evaluate-many half of the prepared-query subsystem: a
// Session is a Plan bound to one database, and holds nothing else. What its
// calls derive belongs to the database revision and lives in its atom store
// (ecrpq.AtomStore), which every session bound to the same *graph.DB shares:
// the atom facts (relations, supports, path-existence verdicts) and the
// answers — complete Responses and ranked prefixes, filed under resultKey.
// Each call asks ecrpq.Atoms(db) once and runs against that store. A query
// runs through exactly two operations: Do, one Request answered whole, and
// Stream (stream.go), a pull cursor; PlanReport (planreport.go) reports the
// join order without evaluating. All Session methods are safe for concurrent
// use.
//
// Invalidation contract: the database must not be mutated while a call is
// in flight. After a (quiescent) mutation, the next call finds the store
// brought up to the bumped graph.DB revision (once, whoever asks first — see
// ecrpq.AtomStore for the matrix), which keeps answers as they are across a
// net-empty window and carries eval answers and true verdicts across a window
// with no new label: Do settles a carried eval answer by a join seeded on the
// window's frontier (settleCarried). Over a window that removed edges a
// verdict is dropped, and so is an eval answer unless every source variable
// of every atom the plan runs is an output variable (Plan.sourceCols): then
// its rows with a frontier node at such a variable's position are dropped
// before the merge, and the rest hold. A batched mutation is
// graph.DB.ApplyDelta, as the server applies one; the server's publish
// carries the store onto the next graph.Snapshot view (AtomStore.CarryTo),
// and Fork does the same and binds the plan there.
// A Response may be served from the store and shared between callers — treat
// its TupleSet as immutable.

// resultKey names one answer of a plan in its database's atom store: the
// plan, weakly, so that the store keeps no plan alive; the operation ("eval",
// "bool", "check", "explain", or "ranked" for the ranked prefix of
// Session.Stream); its image bound — unbounded for the fragment-dispatched
// operations over the union, a value no bounded request can carry
// (Session.semantics refuses k < 0) — and its tuple argument (Tuple.Key;
// empty without one).
type resultKey struct {
	plan  weak.Pointer[Plan]
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
}

// Bind binds the plan to a database.
func (p *Plan) Bind(db *graph.DB) *Session { return &Session{plan: p, db: db} }

// key returns the key of the session's answer to op under image bound k with
// tuple argument t.
func (s *Session) key(op string, k int, t pattern.Tuple) any {
	return resultKey{s.plan.self, op, k, t.Key()}
}

// Fork binds the session's plan, with its fan width, to db — a successor of
// the session's database, typically the next graph.Snapshot view of its
// lineage — after carrying the database's atom store onto it
// (AtomStore.CarryTo), as the server's publish does. The receiver and its
// open cursors keep their view and its store.
func (s *Session) Fork(db *graph.DB) *Session {
	ecrpq.Atoms(s.db).CarryTo(db)
	return &Session{plan: s.plan, db: db, workers: s.workers}
}

// Fragment returns the plan's fragment classification.
func (s *Session) Fragment() string { return s.plan.fragment }

// explanation attaches the session's join order to a witness (best effort:
// the witness stands alone).
func (s *Session) explanation(ex *Explanation) *Explanation {
	ex.Plan, _ = s.PlanReport()
	return ex
}

// boundedRun binds the plan's bounded schedule (Theorem 6) to the session's
// database and its atom store atoms for one run under bud: the one
// constructor of every bounded evaluation, check, explanation and stream.
func (s *Session) boundedRun(atoms *ecrpq.AtomStore, k int, boolOnly bool, pre map[string]int, bud *engine.Budget) (*boundedEngine, error) {
	bp, err := s.plan.boundedPlanFor()
	if err != nil {
		return nil, err
	}
	sigma := xregex.MergeAlphabets(s.db.Alphabet(), s.plan.sigma)
	return newBoundedEngine(bp, s.db, k, boolOnly, pre, atoms, sigma, s.workers, bud)
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
// request's Op are set. A Response may be served from the atom store of the
// session's database and shared between callers: treat Tuples as immutable.
type Response struct {
	Tuples      *pattern.TupleSet // eval
	OK          bool              // bool/check outcome; explain: match found
	Explanation *Explanation      // explain
	Err         error
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
// the atom store is asked for the answer once, and on a miss the union arm
// (every vstar-free query is a union of ECRPQ^er: Plan.members) or the
// bounded arm (Theorem 6) runs the operation — or, when the store carried
// the answer over the window since it was filed, settles it (settleCarried).
// Only a complete answer is filed, charged 4 bytes per value of its tuples:
// an error, or a budget the run ran into, files nothing.
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
	atoms, key := ecrpq.Atoms(s.db), s.key(req.Op, k, t)
	v, hit := atoms.Answer(key)
	atoms.CountAnswer(hit)
	if hit {
		return v.(Response)
	}
	cols := s.plan.sourceCols(bounded)
	if v, frontier, removed, ok := atoms.Carried(key, cols != nil); ok {
		var drop func([]int32) bool
		if removed {
			drop = frontierRows(s.db.NumNodes(), frontier, cols)
		}
		return s.settleCarried(atoms, key, v.(Response), frontier, drop, bounded, k, req.Budget)
	}
	var resp Response
	if bounded {
		resp = s.doBounded(atoms, req.Op, k, t, req.Budget)
	} else {
		resp = s.doUnion(req.Op, t, req.Budget)
	}
	if resp.Err == nil && req.Budget.Err() == nil {
		atoms.FileAnswer(key, resp, resp.values(), resp.carry())
	}
	return resp
}

// values is what a filed Response is charged for: the values of its tuples.
func (r Response) values() int {
	if r.Tuples == nil {
		return 0
	}
	return len(r.Tuples.Rows().Data)
}

// carry is how the atom store carries a filed Response over a window that
// only inserts (ecrpq.Carry): every query the paper defines is monotone, so
// an eval answer grows by the rows settleCarried finds and a true verdict
// stays true. A true verdict goes along once it was asked for again: a check
// is keyed by its tuple, which may never recur. Explanations and false
// verdicts are dropped.
func (r Response) carry() ecrpq.Carry {
	switch {
	case r.Tuples != nil:
		return ecrpq.CarryAlways
	case r.OK && r.Explanation == nil:
		return ecrpq.CarryReused
	}
	return ecrpq.CarryNone
}

// settleCarried brings old, the answer the store carried under key, up to
// the database, and files it in place of the stale copy. A verdict holds as
// it is: the store carries one over windows that only inserted. An eval
// answer gains the rows with a witness that binds some atom's source
// variable to a node of the window's frontier — the union arm runs the lazy
// evaluator per member (ecrpq.EvalUnionSeededWith), the bounded arm its
// mapping enumeration with seeded leaf joins (boundedDelta) — merged into the
// old rows, less those drop reports: over a window that removed edges, the
// rows with a frontier node at a source variable's position (frontierRows),
// whose witnesses all bind that source there, so that the seeded joins find
// each of them that still holds. A run that fails or that the budget cuts
// files nothing: a cut one returns the old rows drop spares and those it
// found, with engine.ErrCanceled.
func (s *Session) settleCarried(atoms *ecrpq.AtomStore, key any, old Response, frontier []int, drop func([]int32) bool, bounded bool, k int, bud *engine.Budget) Response {
	if old.Tuples == nil {
		return atoms.SettleAnswer(key, old, 0, old.carry()).(Response)
	}
	var delta *pattern.TupleSet
	var err error
	if bounded {
		delta, err = s.boundedDelta(atoms, k, frontier, bud)
	} else {
		var ms iter.Seq[member]
		if ms, err = s.plan.members(); err == nil {
			delta, err = ecrpq.EvalUnionSeededWith(queries(ms), s.db, frontier, ecrpq.Options{Budget: bud, Workers: s.workers})
		}
	}
	if delta == nil {
		delta = pattern.NewTupleSet()
	}
	resp := Response{Tuples: pattern.Merge(old.Tuples, delta, drop)}
	resp.OK = resp.Tuples.Len() > 0
	if err == nil {
		err = bud.Err()
	}
	if resp.Err = err; err != nil {
		return resp
	}
	return atoms.SettleAnswer(key, resp, resp.values(), resp.carry()).(Response)
}

// frontierRows returns the drop predicate of settleCarried over a window
// that removed edges: whether a row holds a node of frontier, a list over n
// nodes, at one of the positions cols.
func frontierRows(n int, frontier, cols []int) func([]int32) bool {
	in := make([]uint64, (n+63)/64)
	for _, u := range frontier {
		in[u>>6] |= 1 << (u & 63)
	}
	return func(row []int32) bool {
		for _, c := range cols {
			if u := row[c]; in[u>>6]&(1<<(u&63)) != 0 {
				return true
			}
		}
		return false
	}
}

// boundedDelta is the bounded arm of settleCarried: the run's mapping
// enumeration as it is, with every leaf joined once per source variable,
// pre-bound to each node of seeds (boundedEngine.seed).
func (s *Session) boundedDelta(atoms *ecrpq.AtomStore, k int, seeds []int, bud *engine.Budget) (*pattern.TupleSet, error) {
	if len(seeds) == 0 {
		return pattern.NewTupleSet(), nil
	}
	e, err := s.boundedRun(atoms, k, false, nil, bud)
	if err != nil {
		return nil, err
	}
	e.seed(seeds)
	return e.run()
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
func (s *Session) doBounded(atoms *ecrpq.AtomStore, op string, k int, t pattern.Tuple, bud *engine.Budget) Response {
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
	e, err := s.boundedRun(atoms, k, op == "bool" || op == "check", pre, bud)
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

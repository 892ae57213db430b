package cxrpq

import (
	"fmt"
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
// the atom facts (row tables, supports, path-existence verdicts) and the
// answers — complete Responses and ranked prefixes, filed under resultKey.
// Each call asks ecrpq.Atoms(db) once and runs against that store. A query
// runs through exactly two operations: Do, one Request answered whole, and
// Stream (stream.go), a pull cursor; PlanReport (planreport.go) reports the
// join order without evaluating. Whatever the semantics and the operation,
// explain included, a request is one call of a union driver
// (internal/ecrpq/union.go) over the request's member source (source): the
// plan's ECRPQ^er members, or a bounded run's mappings.
// All Session methods are safe for concurrent use.
//
// Invalidation contract: the database must not be mutated while a call is
// in flight. After a (quiescent) mutation, the next call finds the store
// brought up to the bumped graph.DB revision (once, whoever asks first — see
// ecrpq.AtomStore for the matrix), which keeps answers as they are across a
// net-empty window and carries eval answers and true verdicts across a window
// with no new label: Do settles a carried eval answer by a join seeded on the
// window's frontier (settleCarried). Over a window that removed edges a
// verdict is dropped; an eval answer is settled when the seeded driver can
// tell which of its rows the removal may have broken (ecrpq.SettleUnion),
// and dropped and computed afresh when it cannot. A batched mutation is
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
}

// Bind binds the plan to a database.
func (p *Plan) Bind(db *graph.DB) *Session { return &Session{plan: p, db: db} }

// key returns the key of the session's answer to op under image bound k with
// tuple argument t.
func (s *Session) key(op string, k int, t pattern.Tuple) any {
	return resultKey{s.plan.self, op, k, t.Key()}
}

// Fork binds the session's plan to db — a successor of
// the session's database, typically the next graph.Snapshot view of its
// lineage — after carrying the database's atom store onto it
// (AtomStore.CarryTo), as the server's publish does. The receiver and its
// open cursors keep their view and its store.
func (s *Session) Fork(db *graph.DB) *Session {
	ecrpq.Atoms(s.db).CarryTo(db)
	return &Session{plan: s.plan, db: db}
}

// Fragment returns the plan's fragment classification.
func (s *Session) Fragment() string { return s.plan.fragment }

// boundedRun binds the plan's bounded schedule (Theorem 6) to the session's
// database and its atom store atoms for one run under bud: the one
// constructor of every bounded evaluation, check, explanation and stream.
func (s *Session) boundedRun(atoms *ecrpq.AtomStore, k int, bud *engine.Budget) (*boundedEngine, error) {
	bp, err := s.plan.boundedPlanFor()
	if err != nil {
		return nil, err
	}
	sigma := xregex.MergeAlphabets(s.db.Alphabet(), s.plan.sigma)
	return newBoundedEngine(bp, s.db, k, atoms, sigma, bud)
}

// source is the member source of one request: under the union semantics the
// plan's union of ECRPQ^er (Plan.members), each member compiled over the
// session's database; under a bounded one the mappings of a bounded run
// under image bound k (Theorem 6), each the run's leaf join over the
// mapping's atoms, and the run, nil on the union arm. The drivers of
// internal/ecrpq/union.go pull either.
func (s *Session) source(atoms *ecrpq.AtomStore, bounded bool, k int, bud *engine.Budget) (ecrpq.Members, *boundedEngine, error) {
	if !bounded {
		return ecrpq.QueryMembers(s.db, s.plan.members), nil, s.plan.unionErr
	}
	e, err := s.boundedRun(atoms, k, bud)
	if err != nil {
		return nil, nil, err
	}
	return e.members(), e, nil
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
// the atom store is asked for the answer once, and on a miss the operation
// runs over the request's member source (run) — or, when the store carried
// the answer over the window since it was filed, the answer is settled
// (settleCarried).
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
	if v, frontier, removed, ok := atoms.Carried(key); ok {
		if resp, ok := s.settleCarried(atoms, key, v.(Response), frontier, removed, bounded, k, req.Budget); ok {
			return resp
		}
		atoms.DropCarried(key)
	}
	resp := s.run(atoms, req.Op, bounded, k, t, req.Budget)
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
// answer is settled by the seeded driver (ecrpq.SettleUnion) over the
// request's source: the old rows, less those a window that removed edges may
// have broken, merged with the rows of the joins seeded on the window's
// frontier. ok is false when the driver refuses the window — a member's rows
// do not tell which of them a removal broke — and the caller then drops the
// stale copy and evaluates afresh. A run that fails or that the budget cuts
// files nothing: a cut one returns the rows it can vouch for, with
// engine.ErrCanceled.
func (s *Session) settleCarried(atoms *ecrpq.AtomStore, key any, old Response, frontier []int, removed, bounded bool, k int, bud *engine.Budget) (Response, bool) {
	if old.Tuples == nil {
		return atoms.SettleAnswer(key, old, 0, old.carry()).(Response), true
	}
	ms, _, err := s.source(atoms, bounded, k, bud)
	if err != nil {
		return Response{Err: err}, true
	}
	rows, ok, err := ecrpq.SettleUnion(ms, old.Tuples, frontier, removed, ecrpq.Options{Budget: bud})
	if !ok {
		return Response{}, false
	}
	resp := Response{Tuples: rows, OK: rows.Len() > 0}
	if err == nil {
		err = bud.Err()
	}
	if resp.Err = err; err != nil {
		return resp, true
	}
	return atoms.SettleAnswer(key, resp, resp.values(), resp.carry()).(Response), true
}

// run runs op over the request's member source by one call of a union driver
// (internal/ecrpq/union.go), whatever the arm. A failed or truncated eval
// returns the sound partial rows with its error; bool, check and explain run
// the lazy search per member, first witness wins, and a found witness makes
// the answer definitive whatever the budget cut afterwards. Check, and
// explain given a tuple, pre-bind the output variables, so each member's join
// only searches for one extension of the tuple. An explanation is the witness
// taken back to the query: through the matching member's Step 3 map
// (buildExplanation) on the union arm, with the images of the mapping the run
// stands on on the bounded one.
func (s *Session) run(atoms *ecrpq.AtomStore, op string, bounded bool, k int, t pattern.Tuple, bud *engine.Budget) Response {
	var pre map[string]int
	if op == "check" || t != nil {
		var ok bool
		var err error
		if pre, ok, err = ecrpq.PreBind(s.plan.q.Pattern.Out, s.db, t); err != nil || !ok {
			return Response{Err: err} // !ok: one output variable bound to two nodes
		}
	}
	ms, e, err := s.source(atoms, bounded, k, bud)
	if err != nil {
		return Response{Err: err}
	}
	o := ecrpq.Options{Budget: bud}
	switch op {
	case "eval":
		res, err := ecrpq.EvalUnionWith(ms, o)
		return Response{Tuples: res, OK: res.Len() > 0, Err: err}
	case "bool", "check":
		ok, err := ecrpq.ExistsUnion(ms, pre, o)
		return Response{OK: ok, Err: err}
	}
	i, w, err := ecrpq.WitnessUnion(ms, pre, o)
	switch {
	case w == nil:
		return Response{Err: err}
	case e != nil:
		return Response{OK: true, Explanation: &Explanation{NodeOf: w.NodeOf, Words: w.Words, Images: maps.Clone(e.st.assign)}}
	}
	m, _ := s.plan.member(i)
	return Response{OK: true, Explanation: buildExplanation(s.plan.q, m.tr, m.repl, w)}
}

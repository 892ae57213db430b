package cxrpq

import (
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// Hooks for the external test package, which is where the differential
// suites live (they need internal/workload, which imports this package).

// BindWorkers is Plan.Bind with a fixed fan width. It is the only way a
// Session comes by a non-zero one, and it exists in the test binary alone.
func (p *Plan) BindWorkers(db *graph.DB, workers int) *Session {
	s := p.Bind(db)
	s.workers = workers
	return s
}

// StreamDrained is Stream without the incremental any-k producer or the
// session's ranked prefix: a ranked stream drains and sorts on its own, the
// path only an over-cap union takes in production — the baseline the
// incremental stream is held to.
func (s *Session) StreamDrained(opts StreamOptions) (*Cursor, error) {
	bounded, k, err := s.semantics(opts.Semantics, opts.K)
	if err != nil {
		return nil, err
	}
	return s.rankedCursor(ecrpq.Atoms(s.db), bounded, k, engine.NewBudget(opts.Ctx, opts.Deadline), opts, true)
}

// PageCursor opens the cursor Stream opens over an unranked enumeration that
// no cached answer serves, with run as the enumeration and limit as the
// Limit, under no budget.
func PageCursor(run func(emit ecrpq.StreamFunc) error, limit int) *Cursor {
	return &Cursor{end: limit, open: paged(run), nextWant: 1}
}

// RankedPrefix returns the ranked prefix the atom store of the session's
// database holds for the dispatch of opts, and whether it is done; no rows
// when there is none. Reading it counts no answer hit.
func (s *Session) RankedPrefix(opts StreamOptions) (pattern.Rows, bool) {
	_, k, err := s.semantics(opts.Semantics, opts.K)
	v, ok := ecrpq.Atoms(s.db).Answer(s.key("ranked", k, nil))
	if err != nil || !ok {
		return pattern.Rows{}, false
	}
	return v.(*rankedPrefix).view()
}

// CandidateWalk is one bounded run's view of the candidate enumeration: the
// ≺-topological variable order, what the plan knows about each variable, and
// the candidate list of a variable under a prefix assignment.
type CandidateWalk struct{ e *boundedEngine }

// NewCandidateWalk binds q's bounded plan to db for image bound k.
func NewCandidateWalk(q *Query, db *graph.DB, k int) (*CandidateWalk, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	sess := p.Bind(db)
	e, err := sess.boundedRun(ecrpq.Atoms(db), k, false, nil, nil)
	if err != nil {
		return nil, err
	}
	return &CandidateWalk{e}, nil
}

func (w *CandidateWalk) Vars() []string { return w.e.p.vars }

func (w *CandidateWalk) Sigma() []rune { return w.e.sigma }

func (w *CandidateWalk) DefBodies(x string) []xregex.Node { return w.e.p.defBodies[x] }

func (w *CandidateWalk) Referenced(x string) bool { return w.e.p.refAny[x] }

func (w *CandidateWalk) Candidates(x string, prefix map[string]string) ([]string, error) {
	return w.e.candidates(x, prefix)
}

// PathVerdicts returns the path-existence verdicts stored for the session's
// database.
func (s *Session) PathVerdicts() map[string]bool {
	return ecrpq.Atoms(s.db).Verdicts()
}

// EvalBoundedBoolPre decides D |=^≤k q with the node variables of pre
// pre-bound — any of them, where bounded check binds exactly the output
// variables.
func EvalBoundedBoolPre(q *Query, db *graph.DB, k int, pre map[string]int) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	sess := p.Bind(db)
	e, err := sess.boundedRun(ecrpq.Atoms(db), k, true, pre, nil)
	if err != nil {
		return false, err
	}
	res, err := e.run()
	return err == nil && res.Len() > 0, err
}

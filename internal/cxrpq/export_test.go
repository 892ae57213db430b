package cxrpq

import (
	"cxrpq/internal/graph"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// Hooks for the external test package, which is where the differential
// suites live (they need internal/workload, which imports this package).

// BindTuned is Plan.Bind under a planner tuning. It is the only way a Session
// comes by a non-zero one, and it exists in the test binary alone.
func (p *Plan) BindTuned(db *graph.DB, tune planner.Tuning) *Session {
	s := p.Bind(db)
	s.tune = tune
	return s
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
	e, err := p.Bind(db).boundedRun(k, false, nil, nil)
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
	sc, _, _ := s.current()
	return sc.atoms.Verdicts()
}

// EvalBoundedBoolPre decides D |=^≤k q with the node variables of pre
// pre-bound — any of them, where CheckBounded binds exactly the output
// variables.
func EvalBoundedBoolPre(q *Query, db *graph.DB, k int, pre map[string]int) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	e, err := p.Bind(db).boundedRun(k, true, pre, nil)
	if err != nil {
		return false, err
	}
	res, err := e.run()
	return err == nil && res.Len() > 0, err
}

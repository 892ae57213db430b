package cxrpq

import (
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Check decides t̄ ∈ q(D) (the problem CXRPQ-Check of §2.3) for CRPQ,
// simple and vstar-free queries, using the same fragment dispatch as Eval.
// The paper notes (§8) that all Bool-Eval algorithms extend to Check; here
// the output variables are pre-bound before the join / per-branch search.
// This is the one-shot wrapper over Session.Check.
func Check(q *Query, db *graph.DB, t pattern.Tuple) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	return p.Bind(db).Check(t)
}

// CheckBounded decides t̄ ∈ q^≤k(D) (Theorem 6 semantics); the one-shot
// wrapper over Session.CheckBounded.
func CheckBounded(q *Query, db *graph.DB, k int, t pattern.Tuple) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	return p.Bind(db).CheckBounded(k, t)
}

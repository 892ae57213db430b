// Package crpq implements conjunctive regular path queries (§2.3): graph
// patterns whose edges are labelled with classical regular expressions.
// CRPQs are ECRPQs without relations; evaluation is delegated to the ecrpq
// engine (whose per-edge product construction realizes the Lemma 1 bounds).
package crpq

import (
	"fmt"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// Query is a CRPQ: a graph pattern with classical regular expression labels.
type Query struct {
	Pattern *pattern.Graph
}

// New validates and wraps a pattern as a CRPQ.
func New(g *pattern.Graph) (*Query, error) {
	q := &Query{Pattern: g}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Parse parses the textual query format into a CRPQ.
func Parse(src string) (*Query, error) {
	g, err := pattern.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return New(g)
}

// MustParse is Parse but panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks that all edge labels are classical regular expressions.
func (q *Query) Validate() error {
	if err := q.Pattern.Validate(); err != nil {
		return err
	}
	for i, e := range q.Pattern.Edges {
		if !xregex.IsClassical(e.Label) {
			return fmt.Errorf("crpq: edge %d label %s contains string variables (use package cxrpq)", i, xregex.String(e.Label))
		}
	}
	return nil
}

// Size returns |q|.
func (q *Query) Size() int { return q.Pattern.Size() }

// Eval computes q(D).
func (q *Query) Eval(db *graph.DB) (*pattern.TupleSet, error) {
	return ecrpq.Eval(&ecrpq.Query{Pattern: q.Pattern}, db)
}

// EvalBool decides D |= q.
func (q *Query) EvalBool(db *graph.DB) (bool, error) {
	return ecrpq.EvalBool(&ecrpq.Query{Pattern: q.Pattern}, db)
}

// Check decides t̄ ∈ q(D) (the problem CRPQ-Check of §2.3).
func (q *Query) Check(db *graph.DB, t pattern.Tuple) (bool, error) {
	return ecrpq.Check(&ecrpq.Query{Pattern: q.Pattern}, db, t)
}

// Union is a union of CRPQs (∪-CRPQ, §7).
type Union struct {
	Members []*Query
}

// Eval computes ⋃ qi(D).
func (u *Union) Eval(db *graph.DB) (*pattern.TupleSet, error) {
	out := pattern.NewTupleSet()
	for _, m := range u.Members {
		res, err := m.Eval(db)
		if err != nil {
			return nil, err
		}
		out.AddAll(res)
	}
	return out, nil
}

// EvalBool decides whether some member matches.
func (u *Union) EvalBool(db *graph.DB) (bool, error) {
	for _, m := range u.Members {
		ok, err := m.EvalBool(db)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Size returns the total size of all members.
func (u *Union) Size() int {
	s := 0
	for _, m := range u.Members {
		s += m.Size()
	}
	return s
}

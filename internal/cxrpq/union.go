package cxrpq

import (
	"fmt"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Union is a union of CXRPQs (the ∪-classes of §7 are defined for any class
// of conjunctive path queries): q = q1 ∨ … ∨ qk with q(D) = ⋃ qi(D).
type Union struct {
	Members []*Query
}

// Validate checks all members and that output arities agree.
func (u *Union) Validate() error {
	if len(u.Members) == 0 {
		return fmt.Errorf("cxrpq: empty union")
	}
	arity := len(u.Members[0].Pattern.Out)
	for i, m := range u.Members {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("cxrpq: union member %d: %v", i, err)
		}
		if len(m.Pattern.Out) != arity {
			return fmt.Errorf("cxrpq: union member %d has arity %d, want %d", i, len(m.Pattern.Out), arity)
		}
	}
	return nil
}

// Eval computes ⋃ qi(D), dispatching each member to its fragment's
// algorithm (members must be classical, simple or vstar-free).
func (u *Union) Eval(db *graph.DB) (*pattern.TupleSet, error) {
	return u.eval(db, Request{Op: "eval"})
}

// EvalBounded computes ⋃ qi^≤k(D).
func (u *Union) EvalBounded(db *graph.DB, k int) (*pattern.TupleSet, error) {
	return u.eval(db, Request{Op: "eval", Semantics: "bounded", K: k})
}

func (u *Union) eval(db *graph.DB, req Request) (*pattern.TupleSet, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	out := pattern.NewTupleSet()
	for _, m := range u.Members {
		resp := Do(m, db, req)
		if resp.Err != nil {
			return nil, resp.Err
		}
		out.AddAll(resp.Tuples)
	}
	return out, nil
}

// Size returns the total size of the members.
func (u *Union) Size() int {
	s := 0
	for _, m := range u.Members {
		s += m.Size()
	}
	return s
}

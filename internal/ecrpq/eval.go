package ecrpq

import (
	"fmt"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Options are the per-evaluation parameters of the entry points below. The
// zero value is an unlimited, unranked evaluation.
type Options struct {
	// Budget bounds the evaluation (nil = unlimited). It is polled at level
	// granularity inside the product searches and every 64 join steps, so
	// deadline, context and Stop cancellation all unwind promptly. Whatever
	// was produced before a cancellation is a sound subset of q(D).
	Budget *engine.Budget
	// Ranked threads a witness cost alongside every streamed tuple
	// (UnionRows, AnyK): the sum over join constraints of
	// the cost of the chosen binding (ungrouped edges: shortest matching-path
	// edge count; groups: the synchronized word length). The set-valued and
	// Boolean entry points have no use for it.
	Ranked bool
	// Weight replaces the unit edge cost of a ranked evaluation by a
	// pluggable per-edge-label weight, so every reported cost is a minimum
	// total weight instead of a minimum edge count. Ignored unless Ranked.
	Weight engine.Weight
}

// StreamFunc consumes one enumerated output row with its witness cost (0
// unless ranked). The row is the enumeration's own and is overwritten by the
// next one: a consumer that keeps it copies it. Returning false stops the
// enumeration.
type StreamFunc func(row []int32, cost int) bool

// Eval computes q(D): the set of output tuples (node ids in the order of
// q.Pattern.Out). For Boolean queries the result is the empty tuple set or
// the set containing the empty tuple (D |= q). The set is settled: its rows
// are its sorted view.
func Eval(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	return EvalUnionWith(MembersOf(db, q), Options{})
}

// EvalBool decides D |= q for Boolean q (it also works for non-Boolean
// queries, deciding non-emptiness of q(D)). The search is lazy, so the first
// witness is found without materializing full relations.
func EvalBool(q *Query, db *graph.DB) (bool, error) {
	return ExistsUnion(MembersOf(db, q), nil, Options{})
}

// Check decides t̄ ∈ q(D) (the problem Q-Check of §2.3). Rather than
// materializing q(D), the output variables are pre-bound to the tuple's
// nodes and the join searches for one extension — mirroring how the paper's
// nondeterministic Bool-Eval algorithms extend to Check (§8).
func Check(q *Query, db *graph.DB, t pattern.Tuple) (bool, error) {
	pre, ok, err := PreBind(q.Pattern.Out, db, t)
	if err != nil || !ok {
		return false, err
	}
	return ExistsUnion(MembersOf(db, q), pre, Options{})
}

// PreBind maps the output variables out to the nodes of t: the pre-binding
// of every check and tuple explanation, of either arm of a CXRPQ request. ok
// is false when t binds one variable to two different nodes (no match is
// possible); t of the wrong arity, or a node out of db's range, is an error.
func PreBind(out []string, db *graph.DB, t pattern.Tuple) (pre map[string]int, ok bool, err error) {
	if len(t) != len(out) {
		return nil, false, fmt.Errorf("ecrpq: tuple arity %d, query arity %d", len(t), len(out))
	}
	pre = map[string]int{}
	for i, z := range out {
		v := t[i]
		if v < 0 || v >= db.NumNodes() {
			return nil, false, fmt.Errorf("ecrpq: node id %d out of range", v)
		}
		if prev, bound := pre[z]; bound && prev != v {
			return nil, false, nil
		}
		pre[z] = v
	}
	return pre, true, nil
}

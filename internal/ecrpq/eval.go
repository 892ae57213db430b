package ecrpq

import (
	"errors"
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
	// (UnionRows, Leaf.Next): the sum over join constraints of
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
// the set containing the empty tuple (D |= q).
func Eval(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	return EvalWith(q, db, Options{})
}

// EvalWith is Eval under options. On cancellation it returns the sound
// partial set found so far together with engine.ErrCanceled. The set is
// settled: its rows are its sorted view.
func EvalWith(q *Query, db *graph.DB, o Options) (*pattern.TupleSet, error) {
	out := pattern.NewTupleSet()
	if err := evalInto(q, db, o, out); err != nil && !errors.Is(err, engine.ErrCanceled) {
		return nil, err
	}
	out.Settle()
	return out, o.Budget.Err()
}

// evalInto appends the rows of q(D) to out, a bag its caller settles. On
// cancellation the rows appended so far are a sound subset of q(D) and the
// error is engine.ErrCanceled.
func evalInto(q *Query, db *graph.DB, o Options, out *pattern.TupleSet) error {
	ev, err := newEvaluator(q, db, o, false)
	if err != nil {
		return err
	}
	ev.stream(nil, func(row []int32, _ int) bool {
		out.Append(row)
		return true
	})
	return o.Budget.Err()
}

// evalSeeded appends to out, a bag its caller settles, the rows of q(D) that
// have a witness binding the source variable of some atom — a group
// component's included — to a node of seeds: for each distinct source
// variable, one plan with the variable pre-bound, run once per seed on the
// lazy evaluator. With seeds the frontier of a window, they include the rows
// the window added to q and, when it removed edges, every row left whose
// witnesses all bind a source there (see delta.go). On cancellation the rows
// appended so far are sound and the error is engine.ErrCanceled.
func evalSeeded(q *Query, db *graph.DB, seeds []int, o Options, out *pattern.TupleSet) error {
	if len(seeds) == 0 {
		return nil
	}
	ev, err := newEvaluator(q, db, o, true)
	if err != nil {
		return err
	}
	for _, z := range SourceVars(q.Pattern) {
		ev.compile(map[string]int{z: 0}, false).streamSeeded(z, seeds, ev.bud, func(row []int32, _ int) bool {
			out.Append(row)
			return true
		})
	}
	return o.Budget.Err()
}

// EvalBool decides D |= q for Boolean q (it also works for non-Boolean
// queries, deciding non-emptiness of q(D)).
func EvalBool(q *Query, db *graph.DB) (bool, error) {
	return EvalBoolWith(q, db, Options{})
}

// EvalBoolWith is EvalBool under options. The search is lazy (chunked
// sweeps), so the first witness is found without materializing full
// relations. A canceled budget yields (false, engine.ErrCanceled) unless a
// witness was already found.
func EvalBoolWith(q *Query, db *graph.DB, o Options) (bool, error) {
	ev, err := newEvaluator(q, db, o, true)
	if err != nil {
		return false, err
	}
	return ev.exists(nil)
}

// exists runs the join with the variables of pre pre-bound, short-circuiting
// on the first full match.
func (ev *evaluator) exists(pre map[string]int) (bool, error) {
	found := false
	ev.stream(pre, func([]int32, int) bool {
		found = true
		return false
	})
	if found {
		return true, nil
	}
	return false, ev.bud.Err()
}

// Check decides t̄ ∈ q(D) (the problem Q-Check of §2.3). Rather than
// materializing q(D), the output variables are pre-bound to the tuple's
// nodes and the join searches for one extension — mirroring how the paper's
// nondeterministic Bool-Eval algorithms extend to Check (§8).
func Check(q *Query, db *graph.DB, t pattern.Tuple) (bool, error) {
	return CheckWith(q, db, t, Options{})
}

// CheckWith is Check under options; like EvalBoolWith the pre-bound search
// is lazy, and a canceled budget yields (false, engine.ErrCanceled) unless
// a witness was already found.
func CheckWith(q *Query, db *graph.DB, t pattern.Tuple, o Options) (bool, error) {
	ev, err := newEvaluator(q, db, o, true)
	if err != nil {
		return false, err
	}
	pre, ok, err := PreBind(q.Pattern.Out, db, t)
	if err != nil || !ok {
		return false, err
	}
	return ev.exists(pre)
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

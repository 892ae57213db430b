package ecrpq

import (
	"errors"
	"iter"
	"sync"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// This file is the one place that walks a union of ECRPQs (∪-ECRPQ, §7;
// Lemma 7 / Lemma 13 turn every vstar-free CXRPQ into one): one evaluator per
// operation — set, Boolean, check, stream, any-k roots — over a member
// source. A single query is the union of one member and costs what that member
// costs: a fan of one runs inline, and the member's tuple set is returned as
// is.

// Members is the member source of a union: the member queries in order, each
// either built or replaced by the error that kept the layer above from
// building it. A source is ranged once per operation, on the caller's
// goroutine, and must yield the same sequence every time.
type Members = iter.Seq2[*Query, error]

// MembersOf is the member source of the given queries.
func MembersOf(qs ...*Query) Members {
	return func(yield func(*Query, error) bool) {
		for _, q := range qs {
			if !yield(q, nil) {
				return
			}
		}
	}
}

// UnionWindow is how many members a parallel union operation pulls from its
// source before it fans them out (engine.Fan): a union of at most this many
// members is one fan, and a larger one — their number is exponential in the
// query in the worst case — never holds more than a window of them.
const UnionWindow = 1024

// unionSink accumulates the per-member outcomes of a parallel union operation
// under one contract: a match wins over any error (the query is satisfied
// whatever another member would have reported), errors rank by member index
// with a real failure above a budget truncation, a truncated set evaluation
// keeps the sound partial rows of every member, and the members run under a
// fork of the caller's budget that the first witness (or, evaluating the set,
// the first failure) stops, so in-flight siblings unwind at BFS-level
// granularity without spending the caller's budget.
type unionSink struct {
	bud     *engine.Budget
	fan     *engine.Budget
	workers int  // fan width (Options.Workers)
	exists  bool // Boolean / check: an error must not stop the search for a witness

	mu      sync.Mutex
	out     *pattern.TupleSet
	matched bool
	errAt   int
	err     error
}

// run pulls the members in windows, fans each window out and hands eval every
// member that is still worth starting, with its index in the union and the
// budget to run it under: the fan budget — except for the only member of a
// union of one, which has no sibling to stop it or to be stopped by it and
// polls the caller's budget directly, thousands of times per evaluation.
func (s *unionSink) run(ms Members, db *graph.DB, eval func(i int, q *Query, bud *engine.Budget)) {
	type member struct {
		q   *Query
		err error
	}
	db.Index() // one index build before the fan-out races on it
	var win []member
	base := 0
	flush := func(bud *engine.Budget) {
		engine.Fan(s.workers, len(win), func(i int) {
			switch m := win[i]; {
			case s.fan.Canceled():
			case m.err != nil:
				s.fail(base+i, m.err)
			default:
				eval(base+i, m.q, bud)
			}
		})
		base += len(win)
		win = win[:0]
	}
	for q, err := range ms {
		if win = append(win, member{q, err}); len(win) == UnionWindow {
			if flush(s.fan); s.fan.Canceled() {
				return
			}
		}
	}
	if base == 0 && len(win) == 1 {
		flush(s.bud)
	} else {
		flush(s.fan)
	}
}

// fail ranks the failure of member idx: a real failure outranks a truncation
// (a sibling cut by the fan stop must not mask the error that raised it), and
// within a class the lowest member index wins.
func (s *unionSink) fail(idx int, err error) {
	s.mu.Lock()
	oldC, newC := errors.Is(s.err, engine.ErrCanceled), errors.Is(err, engine.ErrCanceled)
	if s.err == nil || oldC && !newC || oldC == newC && idx < s.errAt {
		s.errAt, s.err = idx, err
	}
	s.mu.Unlock()
	if !s.exists {
		s.fan.Stop()
	}
}

// merge appends a member's rows, a sorted run, to the union. The first
// non-empty set is adopted, not copied: nothing else holds it.
func (s *unionSink) merge(res *pattern.TupleSet) {
	if res == nil || res.Len() == 0 {
		return
	}
	s.mu.Lock()
	if s.out == nil {
		s.out = res
	} else {
		for rows, i := res.Rows(), 0; i < rows.N; i++ {
			s.out.Append(rows.Row(i))
		}
	}
	s.mu.Unlock()
}

// witness records a match and stops the siblings.
func (s *unionSink) witness() {
	s.mu.Lock()
	s.matched = true
	s.mu.Unlock()
	s.fan.Stop()
}

// finish resolves the outcome once every member is done. Members that never
// started because the caller's budget was spent recorded nothing, so the
// budget is asked once more: an answer nothing vouches for is a truncation.
func (s *unionSink) finish() error {
	if s.matched {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	return s.bud.Err()
}

// EvalUnionWith computes ⋃ qi(D) over the members of ms. On a failure or a
// cancellation it returns the sound partial set found so far with the error.
func EvalUnionWith(ms Members, db *graph.DB, o Options) (*pattern.TupleSet, error) {
	return evalUnion(ms, db, o, func(q *Query, o Options) (*pattern.TupleSet, error) { return EvalWith(q, db, o) })
}

// EvalUnionSeededWith is evalSeeded over every member of ms: the rows of
// ⋃ qi(D) with a witness that binds some atom's source variable to a node of
// seeds. On a failure or a cancellation it returns the rows found so far with
// the error.
func EvalUnionSeededWith(ms Members, db *graph.DB, seeds []int, o Options) (*pattern.TupleSet, error) {
	return evalUnion(ms, db, o, func(q *Query, o Options) (*pattern.TupleSet, error) { return evalSeeded(q, db, seeds, o) })
}

// evalUnion merges the settled sets eval computes per member of ms, under
// the fan budget.
func evalUnion(ms Members, db *graph.DB, o Options, eval func(*Query, Options) (*pattern.TupleSet, error)) (*pattern.TupleSet, error) {
	s := &unionSink{bud: o.Budget, fan: o.Budget.Fork(), workers: o.Workers}
	s.run(ms, db, func(i int, q *Query, bud *engine.Budget) {
		res, err := eval(q, Options{Budget: bud})
		s.merge(res)
		if err != nil {
			s.fail(i, err)
		}
	})
	if s.out == nil {
		s.out = pattern.NewTupleSet()
	}
	s.out.Settle()
	return s.out, s.finish()
}

// existsUnion decides whether some member has a match, by the lazy search
// exists runs on one member under the budget it is given.
func existsUnion(ms Members, db *graph.DB, o Options, exists func(*Query, Options) (bool, error)) (bool, error) {
	s := &unionSink{bud: o.Budget, fan: o.Budget.Fork(), workers: o.Workers, exists: true}
	s.run(ms, db, func(i int, q *Query, bud *engine.Budget) {
		if ok, err := exists(q, Options{Budget: bud}); ok {
			s.witness()
		} else if err != nil {
			s.fail(i, err)
		}
	})
	return s.matched, s.finish()
}

// EvalUnionBoolWith decides whether some member of ms matches D. A canceled
// budget yields (false, engine.ErrCanceled) unless a witness was found.
func EvalUnionBoolWith(ms Members, db *graph.DB, o Options) (bool, error) {
	return existsUnion(ms, db, o, func(q *Query, o Options) (bool, error) { return EvalBoolWith(q, db, o) })
}

// CheckUnionWith decides t̄ ∈ ⋃ qi(D): one pre-bound lazy search per member.
func CheckUnionWith(ms Members, db *graph.DB, t pattern.Tuple, o Options) (bool, error) {
	return existsUnion(ms, db, o, func(q *Query, o Options) (bool, error) { return CheckWith(q, db, t, o) })
}

// EvalUnion computes ⋃ qi(D).
func EvalUnion(u *Union, db *graph.DB) (*pattern.TupleSet, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return EvalUnionWith(MembersOf(u.Members...), db, Options{})
}

// EvalUnionBool decides whether some member matches.
func EvalUnionBool(u *Union, db *graph.DB) (bool, error) {
	if err := u.Validate(); err != nil {
		return false, err
	}
	return EvalUnionBoolWith(MembersOf(u.Members...), db, Options{})
}

// EvalUnionStream enumerates ⋃ qi(D) through yield instead of materializing
// it, member after member on the caller's goroutine: every satisfying
// assignment is projected and yielded the moment the join completes it, and
// the consumer's return value unwinds the whole search. Unranked, tuples are
// distinct across the union and cost is always 0. Ranked emission is NOT
// deduplicated — the same tuple may arrive once per distinct assignment, each
// with that assignment's cost — because only a full drain can know the
// minimal witness; the consumer keeps the minimum per tuple. The error
// reports the first member that could not be built or compiled — the caller
// owns the budget and checks it for truncation.
func EvalUnionStream(ms Members, db *graph.DB, o Options, yield StreamFunc) error {
	var seen *pattern.TupleSet // of the whole union; a ranked stream keeps every occurrence
	if !o.Ranked {
		seen = pattern.NewTupleSet()
	}
	stopped := false
	emit := func(row []int32, cost int) bool {
		if seen != nil && !seen.AddRow(row) {
			return true
		}
		stopped = !yield(row, cost)
		return !stopped
	}
	for q, err := range ms {
		if err != nil {
			return err
		}
		ev, err := newEvaluator(q, db, o, true)
		if err != nil {
			return err
		}
		if ev.stream(nil, emit); stopped || o.Budget.Canceled() {
			break
		}
	}
	return nil
}

// EvalStream is EvalUnionStream over the one query q.
func EvalStream(q *Query, db *graph.DB, o Options, yield StreamFunc) error {
	return EvalUnionStream(MembersOf(q), db, o, yield)
}

// Dedup wraps yield so that it sees each distinct row once (the first time).
func Dedup(yield StreamFunc) StreamFunc {
	seen := pattern.NewTupleSet()
	return func(row []int32, cost int) bool {
		return !seen.AddRow(row) || yield(row, cost)
	}
}

// AddUnion adds one query-form root per member of ms (see AddQuery).
func (a *AnyK) AddUnion(ms Members, db *graph.DB, weight engine.Weight) error {
	for q, err := range ms {
		if err != nil {
			return err
		}
		if err := a.AddQuery(q, db, weight); err != nil {
			return err
		}
	}
	return nil
}

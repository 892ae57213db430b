package ecrpq

import (
	"errors"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// This file is the one place that walks a union of ECRPQs (∪-ECRPQ, §7;
// Lemma 7 / Lemma 13 turn every vstar-free CXRPQ into one): one evaluator per
// operation — set, Boolean, check, stream, any-k roots — over a member
// source. Members run one after the other on the caller's goroutine, in
// order: a set evaluation appends every member's rows to one bag and settles
// it once, and a Boolean or check returns at the first witness. A single
// query is the union of one member and costs what that member costs.

// Members is the member source of a union: member i, for i from 0 until ok
// is false, either built or replaced by the error that kept the layer above
// from building it. Members are asked for in order, one at a time, on the
// caller's goroutine, and a source must answer the same every time.
type Members func(i int) (q *Query, ok bool, err error)

// MembersOf is the member source of the given queries.
func MembersOf(qs ...*Query) Members {
	return func(i int) (*Query, bool, error) {
		if i >= len(qs) {
			return nil, false, nil
		}
		return qs[i], true, nil
	}
}

// EvalUnionWith computes ⋃ qi(D) over the members of ms. On a failure or a
// cancellation it returns the sound partial set found so far with the error.
func EvalUnionWith(ms Members, db *graph.DB, o Options) (*pattern.TupleSet, error) {
	return evalUnion(ms, o, func(q *Query, o Options, out *pattern.TupleSet) error { return evalInto(q, db, o, out) })
}

// EvalUnionSeededWith is evalSeeded over every member of ms: the rows of
// ⋃ qi(D) with a witness that binds some atom's source variable to a node of
// seeds. On a failure or a cancellation it returns the rows found so far with
// the error.
func EvalUnionSeededWith(ms Members, db *graph.DB, seeds []int, o Options) (*pattern.TupleSet, error) {
	return evalUnion(ms, o, func(q *Query, o Options, out *pattern.TupleSet) error { return evalSeeded(q, db, seeds, o, out) })
}

// evalUnion appends the rows eval finds for each member of ms, in order, to
// one bag and settles it once. The first member that fails or is cut ends the
// run: the rows of the members before it, and those it found, are returned
// with its error. A spent budget starts no member.
func evalUnion(ms Members, o Options, eval func(*Query, Options, *pattern.TupleSet) error) (*pattern.TupleSet, error) {
	out := pattern.NewTupleSet()
	var err error
	for i := 0; err == nil && !o.Budget.Canceled(); i++ {
		q, more, qerr := ms(i)
		if !more {
			break
		}
		if err = qerr; err == nil {
			err = eval(q, Options{Budget: o.Budget}, out)
		}
	}
	out.Settle()
	if err == nil {
		err = o.Budget.Err()
	}
	return out, err
}

// existsUnion decides whether some member has a match, by the lazy search
// exists runs on each member in order; it returns at the first witness. A
// match beats any error. Without one, a real failure outranks a truncation,
// and within a class the lowest member index wins; a spent budget ends the
// search and vouches for nothing.
func existsUnion(ms Members, o Options, exists func(*Query, Options) (bool, error)) (bool, error) {
	var failed error
	for i := 0; !o.Budget.Canceled(); i++ {
		q, more, err := ms(i)
		if !more {
			break
		}
		if err == nil {
			var ok bool
			if ok, err = exists(q, Options{Budget: o.Budget}); ok {
				return true, nil
			}
		}
		if err != nil && (failed == nil || errors.Is(failed, engine.ErrCanceled) && !errors.Is(err, engine.ErrCanceled)) {
			failed = err
		}
	}
	if failed == nil {
		failed = o.Budget.Err()
	}
	return false, failed
}

// EvalUnionBoolWith decides whether some member of ms matches D. A canceled
// budget yields (false, engine.ErrCanceled) unless a witness was found.
func EvalUnionBoolWith(ms Members, db *graph.DB, o Options) (bool, error) {
	return existsUnion(ms, o, func(q *Query, o Options) (bool, error) { return EvalBoolWith(q, db, o) })
}

// CheckUnionWith decides t̄ ∈ ⋃ qi(D): one pre-bound lazy search per member.
func CheckUnionWith(ms Members, db *graph.DB, t pattern.Tuple, o Options) (bool, error) {
	return existsUnion(ms, o, func(q *Query, o Options) (bool, error) { return CheckWith(q, db, t, o) })
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

// UnionRows is the stream of ⋃ qi(D): the members' searches pulled one after
// the other on the caller's goroutine, a row returned the moment the join
// completes it. Unranked, rows are distinct across the union and cost is
// always 0. Ranked rows are NOT deduplicated — the same tuple may arrive once
// per distinct assignment, each with that assignment's cost — because only a
// full drain can know the minimal witness; the consumer keeps the minimum per
// tuple. The caller owns the budget and checks it for truncation.
type UnionRows struct {
	ms   Members
	db   *graph.DB
	o    Options
	next int  // the member searched after s
	live bool // s is a member's search
	s    search
	seen *pattern.TupleSet // of the whole union; nil when ranked
	err  error
}

// NewUnionRows returns the stream of the members of ms under o; nothing runs
// before the first Next.
func NewUnionRows(ms Members, db *graph.DB, o Options) *UnionRows {
	u := &UnionRows{ms: ms, db: db, o: o}
	if !o.Ranked {
		u.seen = pattern.NewTupleSet()
	}
	return u
}

// Next returns the next row with its witness cost, in a row the stream
// reuses; ok is false once the union is exhausted, the budget canceled or a
// member could not be built or compiled (Err).
func (u *UnionRows) Next() (row []int32, cost int, ok bool) {
	for u.err == nil && u.next >= 0 {
		if u.live {
			if row, cost, ok = u.s.next(); ok {
				if u.seen != nil && !u.seen.AddRow(row) {
					continue
				}
				return row, cost, true
			}
			if u.live = false; u.o.Budget.Canceled() {
				break
			}
		}
		q, more, err := u.ms(u.next)
		if u.next++; !more {
			break
		}
		if err == nil {
			var ev *evaluator
			if ev, err = newEvaluator(q, u.db, u.o, true); err == nil {
				u.s.reset(ev.compile(nil, false), u.o.Budget)
				u.live = true
			}
		}
		u.err = err
	}
	u.next = -1
	return nil, 0, false
}

// Err reports the first member that could not be built or compiled.
func (u *UnionRows) Err() error { return u.err }

// AddUnion adds one query-form root per member of ms (see AddQuery).
func (a *AnyK) AddUnion(ms Members, db *graph.DB, weight engine.Weight) error {
	for i := 0; ; i++ {
		q, ok, err := ms(i)
		if !ok {
			return nil
		}
		if err == nil {
			err = a.AddQuery(q, db, weight)
		}
		if err != nil {
			return err
		}
	}
}

package ecrpq_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// TestEvalUnionParallel checks the fanned-out union evaluation: members
// evaluated concurrently must dedupe into the same set the sequential
// loop produced, and the outcome of a union with failing members must be the
// one the sink contract names, whatever the worker count and however many
// windows the members span.
func TestEvalUnionParallel(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	u := &ecrpq.Union{Members: []*ecrpq.Query{
		mustQuery(t, "ans(x, y)\nx y : a"),
		mustQuery(t, "ans(x, y)\nx y : a|b"), // superset of member 1: forces dedup
		mustQuery(t, "ans(x, y)\nx y : b"),
	}}
	want := pattern.NewTupleSet()
	for _, m := range u.Members {
		res, err := ecrpq.Eval(m, db)
		if err != nil {
			t.Fatal(err)
		}
		want.AddAll(res)
	}
	hit, miss := u.Members[0], mustQuery(t, "ans(x, y)\nx y : c")
	invalid := &ecrpq.Query{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : $v{a}")} // fails Validate
	errA, errB := errors.New("member A"), errors.New("member B")
	cut := fmt.Errorf("member cut: %w", engine.ErrCanceled)
	// A union of three windows whose only failures sit in the last one.
	var wide []any
	for i := 0; i < 2*ecrpq.UnionWindow+5; i++ {
		wide = append(wide, miss)
	}
	wide = append(wide, errB, miss, errA)

	if got, err := ecrpq.EvalUnion(u, db); err != nil || !got.Equal(want) {
		t.Fatalf("EvalUnion: %d tuples, %v; sequential %d", got.Len(), err, want.Len())
	}
	if ok, err := ecrpq.EvalUnionBool(u, db); err != nil || ok != (want.Len() > 0) {
		t.Fatalf("EvalUnionBool = %v, %v; want %v", ok, err, want.Len() > 0)
	}
	for _, workers := range []int{1, 4} {
		o := ecrpq.Options{Workers: workers}
		got, err := ecrpq.EvalUnionWith(ecrpq.MembersOf(u.Members...), db, o)
		if err != nil || !got.Equal(want) {
			t.Fatalf("workers=%d: union %d tuples, %v; sequential %d", workers, got.Len(), err, want.Len())
		}
		if ok, err := ecrpq.EvalUnionBoolWith(ecrpq.MembersOf(u.Members...), db, o); err != nil || ok != (want.Len() > 0) {
			t.Fatalf("workers=%d: EvalUnionBoolWith = %v, %v; want %v", workers, ok, err, want.Len() > 0)
		}
		var many []any // more members than one window holds
		for i := 0; i < ecrpq.UnionWindow+7; i++ {
			many = append(many, u.Members[i%3])
		}
		if got, err := ecrpq.EvalUnionWith(seq(many...), db, o); err != nil || !got.Equal(want) {
			t.Fatalf("workers=%d: a union of %d members has %d tuples, %v; want %d", workers, len(many), got.Len(), err, want.Len())
		}
		for _, c := range []struct {
			name    string
			members ecrpq.Members
			ok      bool
			err     error // nil: none; errAny: whatever Validate says
		}{
			{"a match after a failed member wins", seq(errA, invalid, hit), true, nil},
			{"a failed member after the match is ignored", seq(hit, invalid, errA), true, nil},
			{"no match: the lowest-index failure", seq(miss, errB, errA), false, errB},
			{"a real failure outranks an earlier truncation", seq(cut, miss, errA, errB), false, errA},
			{"a member that does not validate is a failure", seq(miss, invalid), false, errAny},
			{"failures in the third window keep their rank", seq(wide...), false, errB},
		} {
			ok, err := ecrpq.EvalUnionBoolWith(c.members, db, o)
			if ok != c.ok || (c.err == nil) != (err == nil) || c.err != errAny && !errors.Is(err, c.err) {
				t.Errorf("workers=%d, Boolean, %s: got %v, %v", workers, c.name, ok, err)
			}
		}
		// Evaluating the set, the first failure ends the run with what was found.
		res, err := ecrpq.EvalUnionWith(seq(hit, errA, errB), db, o)
		if !errors.Is(err, errA) || res == nil {
			t.Errorf("workers=%d: set evaluation with a failed member = %v, %v; want the partial set and member A", workers, res, err)
		}
		// A witness stops the siblings through a fork: the caller's budget lives on,
		// also when the union is one member running under that very budget.
		for _, ms := range []ecrpq.Members{seq(hit), seq(hit, hit, hit)} {
			live := engine.NewBudget(nil, time.Time{})
			if ok, err := ecrpq.EvalUnionBoolWith(ms, db, ecrpq.Options{Budget: live, Workers: workers}); err != nil || !ok || live.Err() != nil {
				t.Errorf("workers=%d: Boolean match = %v, %v; the caller's budget afterwards: %v", workers, ok, err, live.Err())
			}
		}
		// A spent budget vouches for nothing, and nothing is evaluated under it.
		spent := engine.NewBudget(nil, time.Now().Add(-time.Second))
		if res, err := ecrpq.EvalUnionWith(seq(hit), db, ecrpq.Options{Budget: spent, Workers: workers}); !errors.Is(err, engine.ErrCanceled) || res.Len() != 0 {
			t.Errorf("workers=%d: set evaluation under a spent budget = %d rows, %v", workers, res.Len(), err)
		}
		if ok, err := ecrpq.EvalUnionBoolWith(seq(hit), db, ecrpq.Options{Budget: spent, Workers: workers}); !errors.Is(err, engine.ErrCanceled) || ok {
			t.Errorf("workers=%d: Boolean evaluation under a spent budget = %v, %v", workers, ok, err)
		}
	}
}

var errAny = errors.New("any error")

// seq is a member source over queries and the errors standing in for members
// that could not be built.
func seq(members ...any) ecrpq.Members {
	return func(i int) (*ecrpq.Query, bool, error) {
		if i >= len(members) {
			return nil, false, nil
		}
		q, _ := members[i].(*ecrpq.Query)
		err, _ := members[i].(error)
		return q, true, err
	}
}

// streamUnion pulls every row of the union stream of ms into yield until it
// returns false, and reports the stream's error.
func streamUnion(ms ecrpq.Members, db *graph.DB, o ecrpq.Options, yield ecrpq.StreamFunc) error {
	u := ecrpq.NewUnionRows(ms, db, o)
	for row, cost, ok := u.Next(); ok && yield(row, cost); row, cost, ok = u.Next() {
	}
	return u.Err()
}

// TestFanPanicInUnionMember: a member that panics on a fan worker takes down
// the operation, on the goroutine that asked for it, and nothing else — the
// next operation runs.
func TestFanPanicInUnionMember(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	good := mustQuery(t, "ans(x, y)\nx y : a")
	poisoned := &ecrpq.Query{} // no pattern: Validate dereferences nil
	four := ecrpq.Options{Workers: 4}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the poisoned member did not panic on the caller")
			}
		}()
		ecrpq.EvalUnionWith(seq(good, good, poisoned, good), db, four)
	}()
	want, err := ecrpq.Eval(good, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ecrpq.EvalUnionWith(seq(good, good), db, four); err != nil || !got.Equal(want) {
		t.Fatalf("the union after the panic: %v, %v", got, err)
	}
}

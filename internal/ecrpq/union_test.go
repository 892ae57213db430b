package ecrpq_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// TestEvalUnionParallel checks the union evaluation: members evaluated in
// order must dedupe into the set their own evaluations hold between them,
// also when callers on other goroutines evaluate the union over the same
// database at the same time, and the outcome of a union with failing members
// must be the one the union contract names, however long the union.
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
	// A long union whose only failures sit at its end.
	var wide []any
	for i := 0; i < 2053; i++ {
		wide = append(wide, miss)
	}
	wide = append(wide, errB, miss, errA)

	if got, err := ecrpq.EvalUnion(u, db); err != nil || !got.Equal(want) {
		t.Fatalf("EvalUnion: %d tuples, %v; sequential %d", got.Len(), err, want.Len())
	}
	if ok, err := ecrpq.EvalUnionBool(u, db); err != nil || ok != (want.Len() > 0) {
		t.Fatalf("EvalUnionBool = %v, %v; want %v", ok, err, want.Len() > 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := ecrpq.EvalUnionWith(ecrpq.MembersOf(u.Members...), db, ecrpq.Options{}); err != nil || !got.Equal(want) {
				t.Errorf("caller %d: union %d tuples, %v; sequential %d", g, got.Len(), err, want.Len())
			}
		}()
	}
	wg.Wait()
	var many []any // more members than a plan keeps translated
	for i := 0; i < 1031; i++ {
		many = append(many, u.Members[i%3])
	}
	if got, err := ecrpq.EvalUnionWith(seq(many...), db, ecrpq.Options{}); err != nil || !got.Equal(want) {
		t.Fatalf("a union of %d members has %d tuples, %v; want %d", len(many), got.Len(), err, want.Len())
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
		{"failures at the end of a long union keep their rank", seq(wide...), false, errB},
	} {
		ok, err := ecrpq.EvalUnionBoolWith(c.members, db, ecrpq.Options{})
		if ok != c.ok || (c.err == nil) != (err == nil) || c.err != errAny && !errors.Is(err, c.err) {
			t.Errorf("Boolean, %s: got %v, %v", c.name, ok, err)
		}
	}
	// Evaluating the set, the first failure ends the run with what was found.
	res, err := ecrpq.EvalUnionWith(seq(hit, errA, errB), db, ecrpq.Options{})
	if !errors.Is(err, errA) || res == nil {
		t.Errorf("set evaluation with a failed member = %v, %v; want the partial set and member A", res, err)
	}
	// A witness spends nothing of the caller's budget, also when the union is
	// one member.
	for _, ms := range []ecrpq.Members{seq(hit), seq(hit, hit, hit)} {
		live := engine.NewBudget(nil, time.Time{})
		if ok, err := ecrpq.EvalUnionBoolWith(ms, db, ecrpq.Options{Budget: live}); err != nil || !ok || live.Err() != nil {
			t.Errorf("Boolean match = %v, %v; the caller's budget afterwards: %v", ok, err, live.Err())
		}
	}
	// A spent budget vouches for nothing, and nothing is evaluated under it.
	spent := engine.NewBudget(nil, time.Now().Add(-time.Second))
	if res, err := ecrpq.EvalUnionWith(seq(hit), db, ecrpq.Options{Budget: spent}); !errors.Is(err, engine.ErrCanceled) || res.Len() != 0 {
		t.Errorf("set evaluation under a spent budget = %d rows, %v", res.Len(), err)
	}
	if ok, err := ecrpq.EvalUnionBoolWith(seq(hit), db, ecrpq.Options{Budget: spent}); !errors.Is(err, engine.ErrCanceled) || ok {
		t.Errorf("Boolean evaluation under a spent budget = %v, %v", ok, err)
	}
}

// TestUnionExitsInOrder: members run one after the other, so a union stops
// asking its source for members at the first witness of a Boolean evaluation
// and at the first failure of a set evaluation — which keeps the rows of the
// members before it — while a Boolean evaluation searches past a member that
// could not be built.
func TestUnionExitsInOrder(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	hit, miss := mustQuery(t, "ans(x, y)\nx y : a"), mustQuery(t, "ans(x, y)\nx y : c")
	invalid := &ecrpq.Query{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : $v{a}")} // fails Validate
	errA := errors.New("member A")
	hitRows, err := ecrpq.Eval(hit, db)
	if err != nil || hitRows.Len() == 0 {
		t.Fatalf("fixture: %v, %v", hitRows, err)
	}
	// counted is seq(members...) that records the highest index asked for.
	counted := func(asked *int, members ...any) ecrpq.Members {
		ms := seq(members...)
		return func(i int) (*ecrpq.Query, bool, error) {
			*asked = max(*asked, i)
			return ms(i)
		}
	}

	asked := -1
	if ok, err := ecrpq.EvalUnionBoolWith(counted(&asked, errA, hit, miss), db, ecrpq.Options{}); !ok || err != nil {
		t.Errorf("Boolean over [a member that failed to build, a match] = %v, %v; want true, nil", ok, err)
	}
	if asked != 1 {
		t.Errorf("Boolean: the source was asked up to member %d after the witness at member 1", asked)
	}
	if ok, err := ecrpq.EvalUnionBoolWith(seq(invalid, hit), db, ecrpq.Options{}); !ok || err != nil {
		t.Errorf("Boolean over [a member that does not validate, a match] = %v, %v; want true, nil", ok, err)
	}

	for _, failing := range []any{errA, invalid} {
		asked = -1
		res, err := ecrpq.EvalUnionWith(counted(&asked, hit, failing, hit, miss), db, ecrpq.Options{})
		if err == nil || failing == errA && !errors.Is(err, errA) {
			t.Errorf("set over [a match, %v]: error %v, want the failure", failing, err)
		}
		if res == nil || !res.Equal(hitRows) {
			t.Errorf("set over [a match, %v]: %v, want the first member's %d rows", failing, res, hitRows.Len())
		}
		if asked != 1 {
			t.Errorf("set over [a match, %v]: the source was asked up to member %d after the failure at member 1", failing, asked)
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

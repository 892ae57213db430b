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
	"cxrpq/internal/planner"
	"cxrpq/internal/workload"
)

// forced drops the cost gates, so that every acyclic, group-free, non-lazy
// join takes the Yannakakis path on graphs of a few dozen nodes; with the
// program off the same joins backtrack.
var (
	forced    = ecrpq.Options{Tuning: planner.Tuning{Force: true}}
	noAcyclic = ecrpq.Options{Tuning: planner.Tuning{NoAcyclic: true}}
)

// TestYannakakisDifferential runs a query zoo over random graphs with the
// Yannakakis path forced and with it disabled, asserting tuple-set
// equality — the two join programs must be observationally identical — and
// the two families the program was built for under the production gates,
// which they must clear on their own.
func TestYannakakisDifferential(t *testing.T) {
	const triangle = "ans(x, z)\nx y : a\ny z : a\nx z : b" // cyclic core: falls back, same answers
	queries := []string{
		"ans(x, z)\nx y : a\ny z : b",
		"ans(w, z)\nw x : a\nx y : b\ny z : a|b",
		"ans(x)\nx y1 : a\nx y2 : b\nx y3 : a|b",
		"ans()\nx y : a\ny z : b",
		"ans(x, y)\nx x : a\nx y : b",
		"ans(x, y)\nx y : a\nx y : b",
		"ans(x, y)\nx y : a\nx y : a",
		"ans(x, u)\nx y : a\nu v : b",
		"ans(x, y, z)\nx y : a\ny z : b",
		"ans(x, z)\nx y : a+\ny z : b*a",
		triangle,
	}
	type input struct {
		name    string
		db      *graph.DB
		src     string
		on, off ecrpq.Options
	}
	var inputs []input
	for seed := int64(1); seed <= 3; seed++ {
		db := workload.Random(seed, 30, 140, "ab")
		for _, src := range queries {
			inputs = append(inputs, input{fmt.Sprintf("seed %d %q", seed, src), db, src, forced, noAcyclic})
		}
	}
	// Every backtracking anchor of the chain explores ~width·fanout² partial
	// assignments that die one atom later; the star enumerates fanout³
	// assignments per centre that project to one tuple.
	inputs = append(inputs,
		input{"dead-end chain", workload.DeadEndChain(3, 120, 20, 2), "ans(x0, x3)\nx0 x1 : a\nx1 x2 : a\nx2 x3 : a", ecrpq.Options{}, noAcyclic},
		input{"tri-label star", workload.TriStar(30, 20), "ans(x)\nx y1 : a\nx y2 : b\nx y3 : c", ecrpq.Options{}, noAcyclic})

	for _, in := range inputs {
		q := mustQuery(t, in.src)
		before := planner.Stats().AcyclicPlans
		want, err := ecrpq.EvalWith(q, in.db, in.off)
		if err != nil {
			t.Fatalf("%s backtracking: %v", in.name, err)
		}
		if planner.Stats().AcyclicPlans != before {
			t.Fatalf("%s: the Yannakakis program ran with the acyclic path off", in.name)
		}
		got, err := ecrpq.EvalWith(q, in.db, in.on)
		fired := planner.Stats().AcyclicPlans - before
		gotBool, berr := ecrpq.EvalBoolWith(q, in.db, in.on)
		if err != nil {
			t.Fatalf("%s yannakakis: %v", in.name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: yannakakis %d tuples != backtracking %d", in.name, got.Len(), want.Len())
		}
		if berr != nil || gotBool != (want.Len() > 0) {
			t.Fatalf("%s: EvalBool = %v, %v; want %v", in.name, gotBool, berr, want.Len() > 0)
		}
		if fired == 0 && len(q.Pattern.Edges) > 2 && in.src != triangle {
			t.Fatalf("%s: acyclic path never fired", in.name)
		}
	}
}

// TestYannakakisPairwiseSemijoin pins the counterexample that separates
// relation-level semijoins from per-variable domain filtering: two
// parallel atoms whose relations agree on every endpoint domain but share
// no pair. The join is empty, and a domain-only reduction would not see
// it.
func TestYannakakisPairwiseSemijoin(t *testing.T) {
	db := graph.MustParse(`
a p b
c p d
a q d
c q b
`)
	q := mustQuery(t, "ans(u, v)\nu v : p\nu v : q")
	before := planner.Stats().AcyclicPlans
	got, err := ecrpq.EvalWith(q, db, forced)
	if err != nil {
		t.Fatal(err)
	}
	if planner.Stats().AcyclicPlans == before {
		t.Fatal("acyclic path never fired")
	}
	if got.Len() != 0 {
		t.Fatalf("expected the empty join, got %v", got.Sorted())
	}
}

// TestMinimizeDropsRedundantAtoms checks the evaluator-level containment
// pass end to end: a duplicated atom and an atom widened to a|b both
// vanish from the join without changing the answer set.
func TestMinimizeDropsRedundantAtoms(t *testing.T) {
	db := workload.Random(7, 25, 100, "ab")
	q := mustQuery(t, "ans(x, z)\nx y : a\nx y : a|b\ny z : a\ny z : a")

	before := planner.Stats().AtomsMinimized
	want, err := ecrpq.EvalWith(q, db, ecrpq.Options{Tuning: planner.Tuning{NoMinimize: true}})
	if err != nil {
		t.Fatal(err)
	}
	if planner.Stats().AtomsMinimized != before {
		t.Fatal("atoms were minimized with the pass off")
	}
	got, err := ecrpq.Eval(q, db)
	dropped := planner.Stats().AtomsMinimized - before
	if err != nil {
		t.Fatal(err)
	}
	if dropped < 2 {
		t.Fatalf("minimization dropped %d atoms, want 2", dropped)
	}
	if !got.Equal(want) {
		t.Fatalf("minimized answers %v != full answers %v", got.Sorted(), want.Sorted())
	}
}

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
		tune := planner.Tuning{Workers: workers}
		o := ecrpq.Options{Tuning: tune}
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
			live := engine.NewBudget(nil, time.Time{}, 0)
			if ok, err := ecrpq.EvalUnionBoolWith(ms, db, ecrpq.Options{Budget: live, Tuning: tune}); err != nil || !ok || live.Err() != nil {
				t.Errorf("workers=%d: Boolean match = %v, %v; the caller's budget afterwards: %v", workers, ok, err, live.Err())
			}
		}
		// A spent budget vouches for nothing, and nothing is evaluated under it.
		spent := engine.NewBudget(nil, time.Now().Add(-time.Second), 0)
		if res, err := ecrpq.EvalUnionWith(seq(hit), db, ecrpq.Options{Budget: spent, Tuning: tune}); !errors.Is(err, engine.ErrCanceled) || res.Len() != 0 {
			t.Errorf("workers=%d: set evaluation under a spent budget = %d rows, %v", workers, res.Len(), err)
		}
		if ok, err := ecrpq.EvalUnionBoolWith(seq(hit), db, ecrpq.Options{Budget: spent, Tuning: tune}); !errors.Is(err, engine.ErrCanceled) || ok {
			t.Errorf("workers=%d: Boolean evaluation under a spent budget = %v, %v", workers, ok, err)
		}
	}
}

var errAny = errors.New("any error")

// seq is a member source over queries and the errors standing in for members
// that could not be built.
func seq(members ...any) ecrpq.Members {
	return func(yield func(*ecrpq.Query, error) bool) {
		for _, m := range members {
			q, _ := m.(*ecrpq.Query)
			err, _ := m.(error)
			if !yield(q, err) {
				return
			}
		}
	}
}

// TestFanPanicInUnionMember: a member that panics on a fan worker takes down
// the operation, on the goroutine that asked for it, and nothing else — the
// next operation runs.
func TestFanPanicInUnionMember(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	good := mustQuery(t, "ans(x, y)\nx y : a")
	poisoned := &ecrpq.Query{} // no pattern: Validate dereferences nil
	four := ecrpq.Options{Tuning: planner.Tuning{Workers: 4}}
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

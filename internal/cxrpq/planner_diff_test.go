package cxrpq_test

// Differential property for the cost-based planning layer: what the planner
// does on top of the paper's semantics — cost order, minimization, the
// Yannakakis program — must change no answer, across
// randomized workloads, on every evaluation path: fragment-dispatched Eval,
// the bounded engine, and the Check views of both. A configuration is a
// planner.Tuning handed to the Session (Plan.BindTuned, export_test.go); the
// baseline is the rewrites-off tuning, and the bounded answers are held to
// the literal Theorem 6 rendering EvalBoundedNaive besides.

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/workload"
)

var (
	// rewritesOff keeps every atom and never runs the Yannakakis program:
	// backtracking in the cost order.
	rewritesOff = planner.Tuning{NoMinimize: true, NoAcyclic: true}
	// forced drops the floor and the gain to zero, so that every acyclic
	// join of a six-node graph takes the Yannakakis program.
	forced = planner.Tuning{Force: true}
)

// tunedOutcome is what one configuration answers for one (query, graph, k).
type tunedOutcome struct {
	sess    *cxrpq.Session
	bounded *pattern.TupleSet
	eval    *pattern.TupleSet // nil when the fragment has no Eval
}

// evalTuned evaluates q over db under tune, on a fresh bind.
func evalTuned(t *testing.T, seed int64, q *cxrpq.Query, db *graph.DB, k int, tune planner.Tuning) tunedOutcome {
	t.Helper()
	o := tunedOutcome{sess: cxrpq.MustPrepare(q).BindTuned(db, tune)}
	var err error
	if o.bounded, err = o.sess.EvalBounded(k); err != nil {
		t.Fatalf("seed %d (%+v): EvalBounded: %v\nquery:\n%s", seed, tune, err, q.Pattern)
	}
	if q.CXRE().IsVStarFree() {
		if o.eval, err = o.sess.Eval(); err != nil {
			t.Fatalf("seed %d (%+v): Eval: %v\nquery:\n%s", seed, tune, err, q.Pattern)
		}
	}
	return o
}

// randomTriple draws the (query, graph, k) of one seed; salt separates the
// graphs of the suites that share the generator.
func randomTriple(seed, salt int64) (q *cxrpq.Query, db *graph.DB, k int, finite bool) {
	r := workload.NewRNG(seed)
	finite = r.Intn(3) != 0
	q = workload.RandomQuery(r, finite)
	nodes := 3 + r.Intn(4)
	edges := nodes + r.Intn(nodes+4)
	db = workload.Random(seed^salt, nodes, edges, "ab")
	k = 1
	if !finite && r.Intn(2) == 0 {
		k = 2
	}
	return q, db, k, finite
}

// plannerDiffSeed compares the production tuning with the rewrites-off
// baseline for one random (query, graph, k) triple.
func plannerDiffSeed(t *testing.T, seed int64) {
	t.Helper()
	q, db, k, finite := randomTriple(seed, 0x5eed)
	baseline := evalTuned(t, seed, q, db, k, rewritesOff)
	production := evalTuned(t, seed, q, db, k, planner.Tuning{})

	naive, err := cxrpq.EvalBoundedNaive(q, db, k)
	if err != nil {
		t.Fatalf("seed %d: EvalBoundedNaive: %v\nquery:\n%s", seed, err, q.Pattern)
	}
	if !baseline.bounded.Equal(naive) || !production.bounded.Equal(naive) {
		t.Fatalf("seed %d: EvalBounded diverged: production %d tuples, rewrites off %d, naive %d\nquery:\n%s",
			seed, production.bounded.Len(), baseline.bounded.Len(), naive.Len(), q.Pattern)
	}
	if baseline.eval != nil && !production.eval.Equal(baseline.eval) {
		t.Fatalf("seed %d: Eval diverged: production %d tuples, rewrites off %d\nquery:\n%s",
			seed, production.eval.Len(), baseline.eval.Len(), q.Pattern)
	}

	// Check paths: answers accept, an off-answer probe agrees both ways.
	checkBoth := func(tu pattern.Tuple, want bool) {
		for _, o := range []tunedOutcome{baseline, production} {
			ok, err := o.sess.CheckBounded(k, tu)
			if err != nil {
				t.Fatalf("seed %d: CheckBounded(%v): %v", seed, tu, err)
			}
			if ok != want {
				t.Fatalf("seed %d: CheckBounded(%v)=%v, want %v\nquery:\n%s", seed, tu, ok, want, q.Pattern)
			}
			if q.CXRE().IsVStarFree() {
				okE, err := o.sess.Check(tu)
				if err != nil {
					t.Fatalf("seed %d: Check(%v): %v", seed, tu, err)
				}
				// Unrestricted Check may accept more than the ≤k view on
				// general seeds; on finite seeds the two coincide for answers.
				if finite && okE != want {
					t.Fatalf("seed %d: Check(%v)=%v, want %v\nquery:\n%s", seed, tu, okE, want, q.Pattern)
				}
			}
		}
	}
	if len(q.Pattern.Out) > 0 {
		for i, tu := range naive.Sorted() {
			if i >= 2 {
				break
			}
			checkBoth(tu, true)
		}
		// Probe for a non-answer constant tuple.
		probe := make(pattern.Tuple, len(q.Pattern.Out))
		for v := 0; v < db.NumNodes(); v++ {
			for i := range probe {
				probe[i] = v
			}
			if !naive.Contains(probe) {
				checkBoth(probe, false)
				break
			}
		}
	}
}

func TestPlannerDifferential(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 20
	}
	for seed := int64(0); seed < n; seed++ {
		plannerDiffSeed(t, seed)
	}
}

// TestPlannerDifferentialSkewed pins the skew scenario the planner exists
// for: a dense hub atom plus selective atoms — joins that clear the
// production floor — evaluated under every tuning on the classical and
// bounded paths.
func TestPlannerDifferentialSkewed(t *testing.T) {
	db := workload.SkewedJoin(10)
	for _, src := range []string{
		"ans(x, z)\nx y : h\ny z : s",
		"ans(x)\nx y : h\ny z : s\nz w : s",
		"ans(x, z)\nx y : $w{h}\ny z : s$w?",
	} {
		q := cxrpq.MustParse(src)
		baseline := evalTuned(t, 0, q, db, 1, rewritesOff)
		for _, tune := range []planner.Tuning{{}, forced, {NoAcyclic: true}} {
			got := evalTuned(t, 0, q, db, 1, tune)
			if !got.bounded.Equal(baseline.bounded) {
				t.Fatalf("%q: %+v answers %d tuples, rewrites off %d", src, tune, got.bounded.Len(), baseline.bounded.Len())
			}
			if baseline.eval != nil && !got.eval.Equal(baseline.eval) {
				t.Fatalf("%q: Eval under %+v answers %d tuples, rewrites off %d", src, tune, got.eval.Len(), baseline.eval.Len())
			}
		}
	}
}

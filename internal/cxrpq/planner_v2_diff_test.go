package cxrpq_test

// Differential properties for the planner's rewrites: the containment-based
// minimization pass and the acyclicity-aware Yannakakis join program must
// be observationally invisible — across randomized workloads, every
// evaluation path must produce exactly the tuple sets of the rewrites-off
// baseline, including under interleaved ApplyDelta mutations — and the
// /plan report must say what the evaluation did. The configurations are
// planner.Tuning values (see planner_diff_test.go), so they run as parallel
// subtests; TestPlanReportStrategyIsWhatRan reads the process-wide planner
// counters and stays serial.

import (
	"fmt"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/planner"
	"cxrpq/internal/workload"
)

// v2Configs are the three configurations of the rewrite differentials: the
// baseline, what production runs (on these graphs the cost gates keep every
// join on backtracking, so this is minimization alone), and both rewrites
// with the gates dropped to zero.
var v2Configs = []struct {
	name string
	tune planner.Tuning
}{
	{"rewrites-off", rewritesOff},
	{"production", planner.Tuning{}},
	{"forced", forced},
}

func v2Seeds() int64 {
	if testing.Short() {
		return 15
	}
	return 40
}

func TestPlannerV2Differential(t *testing.T) {
	n := v2Seeds()
	outcomes := make([][]tunedOutcome, len(v2Configs))
	t.Run("configs", func(t *testing.T) {
		for ci, c := range v2Configs {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				outcomes[ci] = make([]tunedOutcome, n)
				for seed := int64(0); seed < n; seed++ {
					q, db, k, _ := randomTriple(seed, 0x9a7)
					outcomes[ci][seed] = evalTuned(t, seed, q, db, k, c.tune)
				}
			})
		}
	})
	for seed := int64(0); seed < n && !t.Failed(); seed++ {
		q, db, k, _ := randomTriple(seed, 0x9a7)
		naive, err := cxrpq.EvalBoundedNaive(q, db, k)
		if err != nil {
			t.Fatalf("seed %d: EvalBoundedNaive: %v\nquery:\n%s", seed, err, q.Pattern)
		}
		baseline := outcomes[0][seed]
		for ci, c := range v2Configs {
			got := outcomes[ci][seed]
			if !got.bounded.Equal(naive) {
				t.Fatalf("seed %d: EvalBounded diverged (%s %d tuples, naive %d)\nquery:\n%s",
					seed, c.name, got.bounded.Len(), naive.Len(), q.Pattern)
			}
			if baseline.eval != nil && !got.eval.Equal(baseline.eval) {
				t.Fatalf("seed %d: Eval diverged (%s %d tuples, %s %d)\nquery:\n%s",
					seed, c.name, got.eval.Len(), v2Configs[0].name, baseline.eval.Len(), q.Pattern)
			}
		}
	}
}

// TestPlannerV2DifferentialWithDeltas interleaves session mutations with
// evaluations: after every ApplyDelta, the maintained session of each
// configuration must agree with a rewrites-off bind to a fresh copy of the
// mutated database.
func TestPlannerV2DifferentialWithDeltas(t *testing.T) {
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : a\nx y : a|b\ny z : b+"))
	for _, c := range []struct {
		name string
		tune planner.Tuning
	}{
		{"production", planner.Tuning{}},
		{"forced", forced},
		{"minimized backtracking", planner.Tuning{NoAcyclic: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			db, deltas := workload.MutationStream(3, 40, 6, 4)
			sess := plan.BindTuned(db, c.tune)
			for step, delta := range deltas {
				if _, err := sess.ApplyDelta(delta); err != nil {
					t.Fatalf("step %d: ApplyDelta: %v", step, err)
				}
				got, err := sess.EvalBounded(1)
				if err != nil {
					t.Fatalf("step %d: EvalBounded: %v", step, err)
				}
				want, err := plan.BindTuned(freshCopy(sess.DB()), rewritesOff).EvalBounded(1)
				if err != nil {
					t.Fatalf("step %d: EvalBounded (baseline): %v", step, err)
				}
				if !got.Equal(want) {
					t.Fatalf("step %d: maintained session %d tuples, baseline %d", step, got.Len(), want.Len())
				}
			}
		})
	}
}

// TestPlanReportV2Fields pins the rewrite report served by cxrpq-serve
// /plan: minimized atoms, acyclicity, free-connexness, the join tree and the
// chosen strategy.
func TestPlanReportV2Fields(t *testing.T) {
	db := workload.Random(2, 20, 60, "ab")
	report := func(t *testing.T, src string, tune planner.Tuning) *cxrpq.PlanReport {
		t.Helper()
		rep, err := cxrpq.MustPrepare(cxrpq.MustParse(src)).BindTuned(db, tune).PlanReport()
		if err != nil {
			t.Fatalf("%q: PlanReport: %v", src, err)
		}
		return rep
	}

	t.Run("redundant acyclic chain", func(t *testing.T) {
		rep := report(t, "ans(x, z)\nx y : a\nx y : a|b\ny z : a", forced)
		if len(rep.MinimizedAtoms) != 1 || rep.MinimizedAtoms[0] != 1 {
			t.Fatalf("MinimizedAtoms = %v, want [1] (the widened a|b atom)", rep.MinimizedAtoms)
		}
		if !rep.Acyclic {
			t.Fatal("chain reported cyclic")
		}
		if rep.FreeConnex {
			t.Fatal("ans(x, z) over a path must not be free-connex (head closes a cycle)")
		}
		if len(rep.JoinTree) != 2 {
			t.Fatalf("JoinTree has %d nodes, want 2 kept atoms", len(rep.JoinTree))
		}
		if rep.Strategy != "yannakakis" {
			t.Fatalf("Strategy = %q, want yannakakis under forced gates", rep.Strategy)
		}
	})
	t.Run("free-connex star", func(t *testing.T) {
		rep := report(t, "ans(x)\nx y1 : a\nx y2 : b", forced)
		if !rep.Acyclic || !rep.FreeConnex {
			t.Fatalf("Acyclic=%v FreeConnex=%v, want both true", rep.Acyclic, rep.FreeConnex)
		}
	})
	t.Run("cyclic triangle", func(t *testing.T) {
		rep := report(t, "ans(x)\nx y : a\ny z : a\nz x : b", forced)
		if rep.Acyclic || len(rep.JoinTree) != 0 {
			t.Fatalf("Acyclic=%v JoinTree=%v, want cyclic with no tree", rep.Acyclic, rep.JoinTree)
		}
		if rep.Strategy != "backtracking" {
			t.Fatalf("Strategy = %q, want backtracking", rep.Strategy)
		}
	})
	t.Run("acyclic gate off", func(t *testing.T) {
		rep := report(t, "ans(x, z)\nx y : a\ny z : a", planner.Tuning{Force: true, NoAcyclic: true})
		if !rep.Acyclic {
			t.Fatal("chain reported cyclic")
		}
		if rep.Strategy != "backtracking" {
			t.Fatalf("Strategy = %q, want backtracking with the Yannakakis program off", rep.Strategy)
		}
	})
	t.Run("production gates on a small graph", func(t *testing.T) {
		if rep := report(t, "ans(x, z)\nx y : a\ny z : a", planner.Tuning{}); rep.Strategy != "backtracking" {
			t.Fatalf("Strategy = %q on a 20-node graph, want backtracking (below the floor)", rep.Strategy)
		}
	})
	t.Run("bounded fragment gates on the skeleton estimate", func(t *testing.T) {
		// Not vstar-free: only the bounded engine evaluates it, over
		// materialized relations, where a cyclic join backtracks however
		// far above the floor it is.
		rep := report(t, "ans(x)\nx y : $w{a|b}\ny z : $w+\nz x : b", forced)
		if rep.Fragment == "CRPQ" || rep.Strategy != "backtracking" {
			t.Fatalf("fragment %q strategy %q, want a bounded-only fragment on backtracking", rep.Fragment, rep.Strategy)
		}
	})
}

// chainReportQueries are acyclic chains whose estimated cost, on a gMark
// graph, clears the floor but not the gain: a report that compared the cost
// with the floor alone would say "yannakakis" of a join that backtracks.
var chainReportQueries = []string{
	"ans(x, z)\nx y : a\ny z : b",
	"ans(x, w)\nx y : a\ny z : b\nz w : c",
	"ans(x, z)\nx y : a+\ny z : b",
	"ans(x)\nx y : a\ny z : b\nz w : a",
}

// TestPlanReportStrategyIsWhatRan: PlanReport.Strategy is "yannakakis"
// exactly when a fresh-bind Eval of the same session runs the Yannakakis
// program (planner.Stats().AcyclicPlans advances) — under the production
// gates and under forced ones, over the differential seeds and the chain
// CRPQs on gMark graphs that clear the floor but not the gain. Reads the
// process-wide counters: not parallel.
func TestPlanReportStrategyIsWhatRan(t *testing.T) {
	check := func(name string, q *cxrpq.Query, db *graph.DB, tune planner.Tuning) {
		t.Helper()
		plan := cxrpq.MustPrepare(q)
		rep, err := plan.BindTuned(db, tune).PlanReport()
		if err != nil {
			t.Fatalf("%s: PlanReport: %v", name, err)
		}
		before := planner.Stats().AcyclicPlans
		if _, err := plan.BindTuned(db, tune).Eval(); err != nil {
			t.Fatalf("%s: Eval: %v", name, err)
		}
		ran := planner.Stats().AcyclicPlans != before
		if (rep.Strategy == "yannakakis") != ran {
			t.Errorf("%s (%+v): report says %q (cost %v), Yannakakis program ran = %v\nquery:\n%s",
				name, tune, rep.Strategy, rep.TotalCost, ran, q.Pattern)
		}
	}
	forcedRan := false
	for seed := int64(0); seed < v2Seeds(); seed++ {
		q, db, _, _ := randomTriple(seed, 0x9a7)
		if !q.CXRE().IsVStarFree() {
			continue
		}
		before := planner.Stats().AcyclicPlans
		for _, tune := range []planner.Tuning{{}, forced} {
			check(fmt.Sprintf("seed %d", seed), q, db, tune)
		}
		forcedRan = forcedRan || planner.Stats().AcyclicPlans != before
	}
	if !forcedRan {
		t.Error("no seed ran the Yannakakis program under forced gates: the property was tested on one side only")
	}
	for _, n := range []int{50, 200, 1000} {
		db := workload.GMark(7, n)
		for _, src := range chainReportQueries {
			check(fmt.Sprintf("gMark %d", n), cxrpq.MustParse(src), db, planner.Tuning{})
		}
	}
}

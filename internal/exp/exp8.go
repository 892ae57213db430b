package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/workload"
)

// The planner-v2 workload families (PR 9). The chain query over
// workload.DeadEndChain makes every backtracking anchor explore
// ~width·fanout² partial assignments that die one atom later; the star
// query over workload.TriStar makes backtracking enumerate fanout³
// satisfying assignments per center that all project to the same output
// tuple; the redundant query carries a duplicated atom and an atom widened
// to a|b over the same endpoints as an a atom, both of which the
// containment-based minimization pass deletes.
const (
	e25Chain     = "ans(x0, x3)\nx0 x1 : a\nx1 x2 : a\nx2 x3 : a"
	e25Star      = "ans(x)\nx y1 : a\nx y2 : b\nx y3 : c"
	e25Redundant = "ans(x, z)\nx y : a\nx y : a|b\ny z : a\ny z : a"
)

// E25PlannerV2 measures the planner-v2 rewrites (PR 9) against the
// backtracking baseline on their stress families:
//
//   - chain/star: the same query is evaluated with the Yannakakis switch
//     off (pure backtracking over the planner's join order) and on (GYO
//     join tree + two semijoin passes + backtrack-free enumeration with
//     free-connex variable skipping); results are asserted equal and the
//     acyclic path is asserted to have actually fired via the planner
//     counters.
//   - redundant: the query carrying a duplicate atom and a containment-
//     widened atom is evaluated with minimization off and on (Yannakakis
//     disabled throughout so only the rewrite under test moves); results
//     are asserted equal and the /plan report is asserted to name the
//     deleted atoms.
func E25PlannerV2(scale int) *Table {
	t := &Table{ID: "E25", Title: "Planner v2: acyclic Yannakakis joins + containment minimization",
		Header: []string{"family", "tuples", "baseline", "planner-v2", "speedup"}}
	reps := 3

	evalTimed := func(plan *cxrpq.Plan, db *graph.DB) (*pattern.TupleSet, time.Duration, error) {
		var res *pattern.TupleSet
		start := time.Now()
		for i := 0; i < reps; i++ {
			r, err := plan.Bind(db).Eval() // fresh bind: no result-cache carryover
			if err != nil {
				return nil, 0, err
			}
			res = r
		}
		return res, time.Since(start), nil
	}

	// Acyclic families: Yannakakis off vs on.
	acyclic := []struct {
		name string
		src  string
		db   *graph.DB
	}{
		{"dead-end chain", e25Chain, workload.DeadEndChain(3, 120*scale, 20, 2)},
		{"tri-label star", e25Star, workload.TriStar(30*scale, 20)},
	}
	for _, it := range acyclic {
		plan, err := cxrpq.PrepareSrc(it.src)
		if err != nil {
			return fail(t, err)
		}
		it.db.Index() // shared label index: warm outside both timings
		prev := planner.SetYannakakis(false)
		want, backD, err := evalTimed(plan, it.db)
		planner.SetYannakakis(true)
		if err != nil {
			planner.SetYannakakis(prev)
			return fail(t, err)
		}
		before := planner.Stats().AcyclicPlans
		got, yanD, yerr := evalTimed(plan, it.db)
		fired := planner.Stats().AcyclicPlans - before
		planner.SetYannakakis(prev)
		if yerr != nil {
			return fail(t, yerr)
		}
		if !got.Equal(want) {
			return fail(t, fmt.Errorf("%s: Yannakakis result diverged (%d vs %d tuples)", it.name, got.Len(), want.Len()))
		}
		if fired == 0 {
			return fail(t, fmt.Errorf("%s: acyclic path never fired", it.name))
		}
		speedup := float64(backD.Nanoseconds()) / float64(max64(yanD.Nanoseconds(), 1))
		t.Rows = append(t.Rows, []string{it.name, fmt.Sprint(want.Len()), ms(backD), ms(yanD),
			fmt.Sprintf("%.1fx", speedup)})
	}

	// Redundant family: minimization off vs on (Yannakakis parked so only
	// the atom deletion moves the needle).
	plan, err := cxrpq.PrepareSrc(e25Redundant)
	if err != nil {
		return fail(t, err)
	}
	db := workload.Random(5, 400*scale, 2400*scale, "ab")
	db.Index()
	yanPrev := planner.SetYannakakis(false)
	minPrev := planner.SetMinimize(false)
	want, baseD, err := evalTimed(plan, db)
	planner.SetMinimize(true)
	if err != nil {
		planner.SetMinimize(minPrev)
		planner.SetYannakakis(yanPrev)
		return fail(t, err)
	}
	got, minD, merr := evalTimed(plan, db)
	var rep *cxrpq.PlanReport
	var rerr error
	if merr == nil {
		rep, rerr = plan.Bind(db).PlanReport()
	}
	planner.SetMinimize(minPrev)
	planner.SetYannakakis(yanPrev)
	if merr != nil {
		return fail(t, merr)
	}
	if rerr != nil {
		return fail(t, rerr)
	}
	if !got.Equal(want) {
		return fail(t, fmt.Errorf("redundant: minimized result diverged (%d vs %d tuples)", got.Len(), want.Len()))
	}
	if len(rep.MinimizedAtoms) < 1 {
		return fail(t, fmt.Errorf("redundant: minimization deleted no atom (plan report: %v)", rep.MinimizedAtoms))
	}
	minSpeed := float64(baseD.Nanoseconds()) / float64(max64(minD.Nanoseconds(), 1))
	t.Rows = append(t.Rows, []string{"redundant atoms", fmt.Sprint(want.Len()), ms(baseD), ms(minD),
		fmt.Sprintf("%.1fx", minSpeed)})
	return t
}

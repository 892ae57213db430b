package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/reductions"
	"cxrpq/internal/workload"
)

// PreparedReuseItem is one workload of the prepared-session experiment:
// the same evaluation issued through the one-shot API and through a bound
// Session, with an agreement check between the two.
type PreparedReuseItem struct {
	Name    string
	Query   *cxrpq.Query
	DB      *graph.DB
	OneShot func(*cxrpq.Query, *graph.DB) (*pattern.TupleSet, error)
	Session func(*cxrpq.Session) (*pattern.TupleSet, error)
}

// PreparedReuseItems returns the workloads of E19 (shared with
// BenchmarkPreparedReuse): the E2 bounded queries, the E6 vstar-free query
// and the E9 hitting-set reduction.
func PreparedReuseItems(scale int) ([]PreparedReuseItem, error) {
	boolSet := func(ok bool) *pattern.TupleSet {
		s := pattern.NewTupleSet()
		if ok {
			s.Add(pattern.Tuple{})
		}
		return s
	}
	h := &reductions.HittingSetInstance{N: 3, Sets: [][]int{{0, 1}, {1, 2}}, K: 1}
	hq, err := h.ToCXRPQ()
	if err != nil {
		return nil, err
	}
	return []PreparedReuseItem{
		{
			Name:  "E2-G1 (bounded k=1)",
			Query: cxrpq.MustParse("ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)+"),
			DB:    workload.Random(3, 10*scale, 25*scale, "abc"),
			OneShot: func(q *cxrpq.Query, db *graph.DB) (*pattern.TupleSet, error) {
				return cxrpq.EvalBounded(q, db, 1)
			},
			Session: func(s *cxrpq.Session) (*pattern.TupleSet, error) { return s.EvalBounded(1) },
		},
		{
			Name:  "E2-G3 (bounded k=2)",
			Query: cxrpq.MustParse("ans(v1, v2)\nv1 v2 : $x{..+}\nv2 v1 : $y{..+}\nv1 w : ($x|$y)+\nv2 w : ($x|$y)+"),
			DB:    workload.MessageNetwork(7, 8*scale, "ab", 2, 2, 2),
			OneShot: func(q *cxrpq.Query, db *graph.DB) (*pattern.TupleSet, error) {
				return cxrpq.EvalBounded(q, db, 2)
			},
			Session: func(s *cxrpq.Session) (*pattern.TupleSet, error) { return s.EvalBounded(2) },
		},
		{
			Name:  "E6 (vstar-free)",
			Query: cxrpq.MustParse("ans(v1, v2)\nv1 v2 : $x{aa|b}\nv2 v3 : c*\nv3 v1 : $x|c"),
			DB:    workload.Random(9, 24*scale, 72*scale, "abc"),
			OneShot: func(q *cxrpq.Query, db *graph.DB) (*pattern.TupleSet, error) {
				return cxrpq.EvalVsf(q, db)
			},
			Session: func(s *cxrpq.Session) (*pattern.TupleSet, error) { return s.EvalVsf() },
		},
		{
			Name:  "E9 (hitting set, bounded k=1)",
			Query: hq,
			DB:    h.ToGraphDB(),
			OneShot: func(q *cxrpq.Query, db *graph.DB) (*pattern.TupleSet, error) {
				ok, err := cxrpq.EvalBoundedBool(q, db, 1)
				return boolSet(ok), err
			},
			Session: func(s *cxrpq.Session) (*pattern.TupleSet, error) {
				ok, err := s.EvalBoundedBool(1)
				return boolSet(ok), err
			},
		},
	}, nil
}

// E19PreparedReuse measures the prepared-query subsystem (PR 3): Plan.Bind
// once and re-evaluate through the Session caches, against the same number
// of one-shot evaluations that recompile and re-derive everything per call.
// Two session variants are timed: the default (whole-result cache on — the
// server's hot path for repeated identical queries) and one with the result
// cache disabled, which isolates the structural reuse (plan + relation
// cache + path verdicts) so a regression there cannot hide behind result-cache
// hits. Session and one-shot results are asserted equal on every rep.
func E19PreparedReuse(scale int) *Table {
	t := &Table{ID: "E19", Title: "Prepared sessions: repeated Session eval vs repeated one-shot eval",
		Header: []string{"workload", "reps", "one-shot", "session", "session (no result cache)", "speedup", "speedup (no rc)"}}
	items, err := PreparedReuseItems(scale)
	if err != nil {
		return fail(t, err)
	}
	reps := 4 * scale
	for _, it := range items {
		var want *pattern.TupleSet
		startOne := time.Now()
		for i := 0; i < reps; i++ {
			res, err := it.OneShot(it.Query, it.DB)
			if err != nil {
				return fail(t, err)
			}
			want = res
		}
		oneShot := time.Since(startOne)

		plan, err := cxrpq.Prepare(it.Query)
		if err != nil {
			return fail(t, err)
		}
		timeSession := func(sess *cxrpq.Session) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < reps; i++ {
				res, err := it.Session(sess)
				if err != nil {
					return 0, err
				}
				if !res.Equal(want) {
					return 0, fmt.Errorf("%s: session result diverged from one-shot", it.Name)
				}
			}
			return time.Since(start), nil
		}
		sessD, err := timeSession(plan.Bind(it.DB))
		if err != nil {
			return fail(t, err)
		}
		noRC, err := timeSession(plan.BindOpts(it.DB, cxrpq.SessionOptions{ResultCacheCap: -1}))
		if err != nil {
			return fail(t, err)
		}

		speedup := func(d time.Duration) string {
			return fmt.Sprintf("%.1fx", float64(oneShot.Nanoseconds())/float64(max64(d.Nanoseconds(), 1)))
		}
		t.Rows = append(t.Rows, []string{it.Name, fmt.Sprint(reps),
			ms(oneShot), ms(sessD), ms(noRC), speedup(sessD), speedup(noRC)})
	}
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PlannerJoinItem is one workload of E20: the same evaluation run with the
// structural join order (Structural) and with the cost-based planner
// (Planned); both toggle planner.SetEnabled internally where needed.
type PlannerJoinItem struct {
	Name       string
	Structural func() (*pattern.TupleSet, error)
	Planned    func() (*pattern.TupleSet, error)
}

// PlannerJoinItems returns the workloads of E20 (shared with
// BenchmarkPlannerJoin): the skewed-cardinality graph — one dense hub atom
// plus selective atoms — evaluated through the ecrpq evaluator's join, the
// bounded engine's leaf joins, and a raw JoinRelations call.
func PlannerJoinItems(scale int) ([]PlannerJoinItem, error) {
	db := workload.SkewedJoin(24 * scale)
	withPlanner := func(on bool, f func() (*pattern.TupleSet, error)) (*pattern.TupleSet, error) {
		prev := planner.SetEnabled(on)
		defer planner.SetEnabled(prev)
		return f()
	}
	qCRPQ := cxrpq.MustParse("ans(x, z)\nx y : h\ny z : s")
	qBounded := cxrpq.MustParse("ans(x, z)\nx y : $w{h}\ny z : s$w?")
	g := pattern.MustParseQuery("ans(x, z)\nx y : h\ny z : s")
	sigma := db.Alphabet()
	rels := make([]*ecrpq.EdgeRel, len(g.Edges))
	for i, e := range g.Edges {
		r, err := ecrpq.RelationFor(db, e.Label, sigma)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	return []PlannerJoinItem{
		{
			Name: "ecrpq eval (CRPQ join)",
			Structural: func() (*pattern.TupleSet, error) {
				return withPlanner(false, func() (*pattern.TupleSet, error) { return cxrpq.Eval(qCRPQ, db) })
			},
			Planned: func() (*pattern.TupleSet, error) {
				return withPlanner(true, func() (*pattern.TupleSet, error) { return cxrpq.Eval(qCRPQ, db) })
			},
		},
		{
			Name: "bounded leaf joins (k=1)",
			Structural: func() (*pattern.TupleSet, error) {
				return withPlanner(false, func() (*pattern.TupleSet, error) { return cxrpq.EvalBounded(qBounded, db, 1) })
			},
			Planned: func() (*pattern.TupleSet, error) {
				return withPlanner(true, func() (*pattern.TupleSet, error) { return cxrpq.EvalBounded(qBounded, db, 1) })
			},
		},
		{
			Name: "relation join (JoinRelations)",
			Structural: func() (*pattern.TupleSet, error) {
				return ecrpq.JoinRelations(g, rels, nil, nil, false), nil
			},
			Planned: func() (*pattern.TupleSet, error) {
				return ecrpq.JoinRelations(g, rels, ecrpq.PlanJoin(g, rels, nil), nil, false), nil
			},
		},
	}, nil
}

// E20PlannerJoin measures the cost-based planning layer (PR 4) on a
// skewed-cardinality workload: a dense h-labelled hub atom joined with
// highly selective s atoms. The structural most-bound-first heuristic ties
// at score zero and scans the hub first; the planner's cardinality
// estimates start from the selective atoms (and the semijoin pass shrinks
// the hub's candidate domain). Structural and planner results are asserted
// equal on every rep.
func E20PlannerJoin(scale int) *Table {
	t := &Table{ID: "E20", Title: "Cost-based join order vs structural order (skewed hub + selective atoms)",
		Header: []string{"path", "reps", "structural", "planner", "speedup"}}
	items, err := PlannerJoinItems(scale)
	if err != nil {
		return fail(t, err)
	}
	reps := 3 * scale
	for _, it := range items {
		var want *pattern.TupleSet
		startS := time.Now()
		for i := 0; i < reps; i++ {
			res, err := it.Structural()
			if err != nil {
				return fail(t, err)
			}
			want = res
		}
		structD := time.Since(startS)
		startP := time.Now()
		for i := 0; i < reps; i++ {
			res, err := it.Planned()
			if err != nil {
				return fail(t, err)
			}
			if !res.Equal(want) {
				return fail(t, fmt.Errorf("%s: planner result diverged from structural", it.Name))
			}
		}
		planD := time.Since(startP)
		t.Rows = append(t.Rows, []string{it.Name, fmt.Sprint(reps), ms(structD), ms(planD),
			fmt.Sprintf("%.1fx", float64(structD.Nanoseconds())/float64(max64(planD.Nanoseconds(), 1)))})
	}
	return t
}

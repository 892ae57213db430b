package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// IncrementalUpdateItem is one workload of the E21 live-mutation
// experiment: a MutationStream base graph and delta stream plus an
// operation re-issued after every delta. Incremental routes each delta
// through Session.ApplyDelta (fine-grained cache maintenance); Rebuild
// applies the same delta and then forces the historical whole-epoch flush
// with Session.Invalidate.
type IncrementalUpdateItem struct {
	Name  string
	Query *cxrpq.Query
	K     int
	Seed  int64
	Base  int
	Steps int
	Per   int
	// Do is the per-step operation; results are normalized to tuple sets
	// for the cross-mode agreement check.
	Do func(*cxrpq.Session, int) (*pattern.TupleSet, error)
}

// IncrementalUpdateItems returns the E21 workloads (shared with
// BenchmarkApplyDelta), covering the three serving paths of a live
// database: full enumeration after each write, a Boolean liveness probe
// ("does the pattern still hold?"), and a membership check of a fixed
// tuple ("are these two still related?"). The enumeration path also pays
// the per-answer materialization both modes share, so its ratio is the
// most conservative; the probe paths isolate the relation work the
// subsystem actually saves.
func IncrementalUpdateItems(scale int) []IncrementalUpdateItem {
	boolSet := func(ok bool) *pattern.TupleSet {
		s := pattern.NewTupleSet()
		if ok {
			s.Add(pattern.Tuple{})
		}
		return s
	}
	qEval := cxrpq.MustParse("ans(s, t)\ns m : $x{a|b}\nm t : ($x|b)a?")
	qBool := cxrpq.MustParse("ans(s, t)\ns m : $x{a|b}\nm n : $y{a|b}b?\nn t : ($x|$y)a?")
	qChk := cxrpq.MustParse("ans(s, t)\ns m : $x{a|b}\nm t : ($x|b)a?")
	return []IncrementalUpdateItem{
		{
			Name: "stream-eval", Query: qEval, K: 1, Seed: 5, Base: 40 * scale, Steps: 6, Per: 2,
			Do: func(s *cxrpq.Session, _ int) (*pattern.TupleSet, error) { return s.EvalBounded(1) },
		},
		{
			Name: "stream-bool", Query: qBool, K: 1, Seed: 11, Base: 64 * scale, Steps: 6, Per: 2,
			Do: func(s *cxrpq.Session, _ int) (*pattern.TupleSet, error) {
				ok, err := s.EvalBoundedBool(1)
				return boolSet(ok), err
			},
		},
		{
			Name: "stream-check", Query: qChk, K: 1, Seed: 17, Base: 64 * scale, Steps: 6, Per: 2,
			Do: func(s *cxrpq.Session, step int) (*pattern.TupleSet, error) {
				// Membership probes over a rotating pair of base nodes.
				n := s.DB().NumNodes()
				ok, err := s.CheckBounded(1, pattern.Tuple{step % n, (step*13 + 7) % n})
				return boolSet(ok), err
			},
		},
	}
}

// SetupMutationStream builds one item's database, delta stream and warmed
// session (setup is excluded from the timed mutate-then-query loop).
func SetupMutationStream(it IncrementalUpdateItem) (*cxrpq.Session, []graph.Delta, error) {
	db, deltas := workload.MutationStream(it.Seed, it.Base, it.Steps, it.Per)
	sess := cxrpq.MustPrepare(it.Query).Bind(db)
	if _, err := it.Do(sess, 0); err != nil { // warm the caches
		return nil, nil, err
	}
	return sess, deltas, nil
}

// runMutationStream replays a delta stream through a warmed session,
// calling apply for every delta; it returns the per-step results for the
// cross-mode agreement check. This is the timed loop.
func runMutationStream(it IncrementalUpdateItem, sess *cxrpq.Session, deltas []graph.Delta, apply func(sess *cxrpq.Session, delta graph.Delta) error) ([]*pattern.TupleSet, error) {
	var out []*pattern.TupleSet
	for step, delta := range deltas {
		if err := apply(sess, delta); err != nil {
			return nil, err
		}
		res, err := it.Do(sess, step)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// E21IncrementalUpdate measures the incremental-update subsystem (PR 5) on
// the append-mostly MutationStream workload: after every delta the item's
// operation re-runs, once with fine-grained delta maintenance
// (Session.ApplyDelta: relations retained or frontier-extended, positive
// path verdicts kept) and once with the historical flush-and-rebuild
// behavior (apply + Invalidate). Per-step results are asserted equal, and
// each row reports the speedup and the retained/extended relation-entry
// counts.
func E21IncrementalUpdate(scale int) *Table {
	t := &Table{ID: "E21", Title: "Incremental updates: delta-maintained session vs flush-and-rebuild (MutationStream)",
		Header: []string{"workload", "steps", "rebuild", "incremental", "speedup", "rel retained", "rel extended"}}
	for _, it := range IncrementalUpdateItems(scale) {
		rebSess, rebDeltas, err := SetupMutationStream(it)
		if err != nil {
			return fail(t, err)
		}
		startReb := time.Now()
		wantSteps, err := runMutationStream(it, rebSess, rebDeltas, func(sess *cxrpq.Session, delta graph.Delta) error {
			if _, err := sess.DB().ApplyDelta(delta); err != nil {
				return err
			}
			sess.Invalidate() // the historical whole-epoch flush
			return nil
		})
		if err != nil {
			return fail(t, err)
		}
		rebD := time.Since(startReb)

		sess, incDeltas, err := SetupMutationStream(it)
		if err != nil {
			return fail(t, err)
		}
		startInc := time.Now()
		gotSteps, err := runMutationStream(it, sess, incDeltas, func(sess *cxrpq.Session, delta graph.Delta) error {
			_, err := sess.ApplyDelta(delta)
			return err
		})
		if err != nil {
			return fail(t, err)
		}
		incD := time.Since(startInc)

		for i := range wantSteps {
			if !gotSteps[i].Equal(wantSteps[i]) {
				return fail(t, fmt.Errorf("%s: step %d: incremental result diverged from rebuild (%d vs %d tuples)",
					it.Name, i, gotSteps[i].Len(), wantSteps[i].Len()))
			}
		}
		st := sess.Stats()
		if st.Maint.DeltaApplies == 0 {
			return fail(t, fmt.Errorf("%s: no delta maintenance happened", it.Name))
		}
		t.Rows = append(t.Rows, []string{it.Name, fmt.Sprint(it.Steps), ms(rebD), ms(incD),
			fmt.Sprintf("%.1fx", float64(rebD.Nanoseconds())/float64(max64(incD.Nanoseconds(), 1))),
			fmt.Sprint(st.Rel.Retained), fmt.Sprint(st.Rel.Extended)})
	}
	return t
}

package ecrpq_test

import (
	"fmt"
	"testing"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// TestSupportReadDifferential: answering an atom from its support must not
// change what any entry point returns. Over the shapes of workload.RandomQuery
// (a two- or three-atom chain p→m→(n→)q with the output on nothing, p, p and
// q, or p and m — so dangling, shared and output endpoints all occur) under
// random classical labels, every operation is held to the join over the
// complete relations BuildRelation computes, where no support is ever read:
// Eval with the default gates (frontier pass) and with the Yannakakis program
// forced, the lazy stream, the Boolean run, Check on every answer and on near
// misses, and the ranked streams under unit cost and under a weight — every
// tuple at the same minimal cost, the support never applying to a ranked plan. The database's atom store says which queries had
// a support read at all.
func TestSupportReadDifferential(t *testing.T) {
	t.Parallel()
	labels := []string{"a", "b", "a+", "b+", "(a|b)+", "ab", "a*b", "(ab)*", "b?a", "a|bb", "(a|b)(a|b)", "ba*"}
	weight := engine.Weight(func(l rune) int32 { return 1 + 3*(l-'a') })
	r := workload.NewRNG(5)
	supported := 0
	for qi := 0; qi < 60; qi++ {
		g := workload.RandomQuery(r, false).Pattern.Clone()
		for i := range g.Edges {
			g.Edges[i].Label = xregex.MustParse(labels[r.Intn(len(labels))])
		}
		if qi%7 == 3 {
			g.Edges[len(g.Edges)-1].From = g.Edges[len(g.Edges)-1].To // a self-loop on q; the chain ends dangling
		}
		q := &ecrpq.Query{Pattern: g}
		db := workload.Random(int64(100+qi), 12+qi%9, 20+2*(qi%13), "ab")
		fail := func(op string, got, want any, err error) {
			t.Helper()
			t.Fatalf("query %d %s: %v (%v), the join over complete relations has %v\n%s", qi, op, got, err, want, g)
		}

		// The baseline: complete relations, built outside the store, joined.
		relations := func(o engine.ReachOpts) []*ecrpq.EdgeRel {
			rels := make([]*ecrpq.EdgeRel, len(g.Edges))
			for i, e := range g.Edges {
				var err error
				if rels[i], err = ecrpq.BuildRelation(db, e.Label, db.Alphabet(), o); err != nil {
					t.Fatal(err)
				}
			}
			return rels
		}
		rels := relations(engine.ReachOpts{})
		join := func(pre map[string]int, boolOnly bool) *pattern.TupleSet {
			return ecrpq.JoinRelations(g, rels, ecrpq.PlanJoin(g, rels, pre), pre, boolOnly)
		}
		want := join(nil, false)

		res, err := ecrpq.Eval(q, db)
		if err != nil || !res.Equal(want) {
			fail("eval", res.Sorted(), want.Sorted(), err)
		}
		yan, err := ecrpq.EvalWith(q, db, forced)
		if err != nil || !yan.Equal(want) {
			fail("eval/yannakakis", yan.Sorted(), want.Sorted(), err)
		}
		lazy := pattern.NewTupleSet()
		err = ecrpq.EvalStream(q, db, ecrpq.Options{}, func(row []int32, cost int) bool {
			if !lazy.AddRow(row) || cost != 0 {
				t.Fatalf("query %d: the lazy stream yielded %v at cost %d, twice or at a cost\n%s", qi, row, cost, g)
			}
			return true
		})
		if err != nil || !lazy.Equal(want) {
			fail("stream", lazy.Sorted(), want.Sorted(), err)
		}
		if ok, err := ecrpq.EvalBool(q, db); err != nil || ok != (want.Len() > 0) {
			fail("bool", ok, want.Len(), err)
		}
		check := func(tu pattern.Tuple) {
			pre := map[string]int{}
			for i, z := range g.Out {
				pre[z] = tu[i]
			}
			if ok, err := ecrpq.Check(q, db, tu); err != nil || ok != (join(pre, true).Len() > 0) {
				fail(fmt.Sprint("check", tu), ok, !ok, err)
			}
		}
		for _, tu := range want.Sorted() {
			check(tu)
			if len(tu) > 0 {
				miss := append(pattern.Tuple(nil), tu...)
				miss[len(miss)-1] = (miss[len(miss)-1] + 1) % db.NumNodes()
				check(miss)
			}
		}
		for name, w := range map[string]engine.Weight{"ranked": nil, "weighted": weight} {
			minCost := func(into map[string]int) ecrpq.StreamFunc { // tuple -> minimal witness cost
				return func(row []int32, cost int) bool {
					if c, ok := into[fmt.Sprint(row)]; !ok || cost < c {
						into[fmt.Sprint(row)] = cost
					}
					return true
				}
			}
			best, got := map[string]int{}, map[string]int{}
			lrels := relations(engine.ReachOpts{Levels: true, Weight: w})
			ecrpq.JoinRelationsStream(g, lrels, ecrpq.PlanJoin(g, lrels, nil), nil, ecrpq.Options{Ranked: true}, minCost(best))
			err := ecrpq.EvalStream(q, db, ecrpq.Options{Ranked: true, Weight: w}, minCost(got))
			if err != nil || fmt.Sprint(got) != fmt.Sprint(best) {
				fail(name, got, best, err)
			}
		}
		if ecrpq.Atoms(db).Stats().Supports.Entries > 0 {
			supported++
		}
	}
	if supported < 20 {
		t.Fatalf("a support was read for %d of 60 queries: the shapes do not exercise it", supported)
	}
}

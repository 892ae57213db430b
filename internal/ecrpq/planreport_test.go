package ecrpq_test

import (
	"slices"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// TestPlanReportIsCompiledOrder: /plan reports the order that runs. Over the
// shapes of workload.RandomQuery under random classical labels, with the
// edges shuffled out of chain order and now and then a self-loop, the edge
// order of cxrpq's PlanReport is the step order the evaluator compiles.
func TestPlanReportIsCompiledOrder(t *testing.T) {
	labels := []string{"a", "b", "a+", "(a|b)*", "ab", "b?a"}
	r := workload.NewRNG(11)
	db := workload.Random(3, 12, 24, "ab")
	for qi := 0; qi < 20; qi++ {
		g := workload.RandomQuery(r, false).Pattern.Clone()
		if qi%5 == 2 {
			m := g.Edges[0].To
			g.Edges = append(g.Edges, pattern.Edge{From: m, To: m})
		}
		for i := range g.Edges {
			g.Edges[i].Label = xregex.MustParse(labels[r.Intn(len(labels))])
		}
		for i := len(g.Edges) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i]
		}
		src := g.String()
		want, err := ecrpq.CompiledOrder(ecrpq.MustParseQuery(src, []rune("ab")), db)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cxrpq.MustPrepare(cxrpq.MustParse(src)).Bind(db).PlanReport()
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, st := range rep.Steps {
			got = append(got, st.Edge)
		}
		if len(want) != len(g.Edges) || !slices.Equal(got, want) {
			t.Fatalf("query %d: PlanReport order %v, compiled order %v\n%s", qi, got, want, src)
		}
	}
}

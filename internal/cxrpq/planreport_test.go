package cxrpq

import (
	"strings"
	"testing"

	"cxrpq/internal/graph"
)

// skewedPlanDB builds a graph with a dense h-hub and a single selective
// s-edge, so cost-based ordering must place the s-atom first.
func skewedPlanDB() *graph.DB {
	var b strings.Builder
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			b.WriteString("a")
			b.WriteByte(byte('0' + i))
			b.WriteString(" h b")
			b.WriteByte(byte('0' + j))
			b.WriteString("\n")
		}
	}
	b.WriteString("b0 s c0\n")
	return graph.MustParse(b.String())
}

func TestPlanReportOrdersBySelectivity(t *testing.T) {
	db := skewedPlanDB()
	sess := MustPrepare(MustParse("ans(x, z)\nx y : h\ny z : s")).Bind(db)
	rep, err := sess.PlanReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fragment != "CRPQ" {
		t.Fatalf("fragment = %q", rep.Fragment)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(rep.Steps))
	}
	if rep.Steps[0].Label != "s" {
		t.Fatalf("first step = %+v, want the selective s atom", rep.Steps[0])
	}
	if rep.Steps[0].EstPairs != 1 {
		t.Fatalf("s atom estimated pairs = %v, want 1", rep.Steps[0].EstPairs)
	}
	if rep.Steps[1].Mode != "expand-rev" {
		t.Fatalf("h atom mode = %q, want expand-rev (target bound)", rep.Steps[1].Mode)
	}
}

func TestPlanReportRevisionRecompute(t *testing.T) {
	db := skewedPlanDB()
	sess := MustPrepare(MustParse("ans(x, z)\nx y : h\ny z : s")).Bind(db)
	rep1, err := sess.PlanReport()
	if err != nil {
		t.Fatal(err)
	}
	db.AddEdgeNames("b1", 's', "c1")
	rep2, err := sess.PlanReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Revision == rep1.Revision {
		t.Fatal("report revision did not move with the database")
	}
	if rep2.Steps[0].EstPairs != 2 {
		t.Fatalf("recomputed s estimate = %v, want 2", rep2.Steps[0].EstPairs)
	}
}

func TestExplainCarriesPlan(t *testing.T) {
	db := skewedPlanDB()
	sess := MustPrepare(MustParse("ans(x, z)\nx y : h\ny z : s")).Bind(db)
	ex, ok, err := sess.Explain(nil)
	if err != nil || !ok {
		t.Fatalf("explain: ok=%v err=%v", ok, err)
	}
	if ex.Plan == nil || len(ex.Plan.Steps) != 2 {
		t.Fatalf("explanation plan = %+v", ex.Plan)
	}
	// Bounded explain on a query with a string variable.
	sess2 := MustPrepare(MustParse("ans(x, z)\nx y : $w{h}\ny z : s")).Bind(db)
	ex2, ok, err := sess2.ExplainBounded(1, nil)
	if err != nil || !ok {
		t.Fatalf("explain bounded: ok=%v err=%v", ok, err)
	}
	if ex2.Plan == nil || len(ex2.Plan.Steps) != 2 {
		t.Fatalf("bounded explanation plan = %+v", ex2.Plan)
	}
}

// TestPlanReportReads pins what the report says each atom is read for: one
// bounded and one CRPQ case, covering every value.
func TestPlanReportReads(t *testing.T) {
	db := skewedPlanDB()
	for _, tc := range []struct {
		src  string
		want map[int]string // edge -> reads
	}{
		// z is in no other atom and not in the output: the $w+ atom is read
		// for its sources only and resolved by a support.
		{"ans(x, y)\nx y : $w{h|s}\ny z : $w+", map[int]string{0: "pairs", 1: "from"}},
		// x is private to the h atom, y shared, the s atom is cut off from
		// everything, and a self-loop's ends read each other.
		{"ans(y)\nx y : h\nu v : s\ny y : h*", map[int]string{0: "to", 1: "none", 2: "pairs"}},
	} {
		rep, err := MustPrepare(MustParse(tc.src)).Bind(db).PlanReport()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Steps) != len(tc.want) {
			t.Fatalf("%q: %d steps, want %d", tc.src, len(rep.Steps), len(tc.want))
		}
		for _, st := range rep.Steps {
			if st.Reads != tc.want[st.Edge] {
				t.Fatalf("%q: edge %d (%s %s) reads %q, want %q", tc.src, st.Edge, st.From, st.To, st.Reads, tc.want[st.Edge])
			}
		}
	}
}

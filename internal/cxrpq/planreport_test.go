package cxrpq

import (
	"strings"
	"testing"

	"cxrpq/internal/graph"
)

// skewedPlanDB builds a graph with a dense h-hub and a single selective
// s-edge: an order that read the data would place the s-atom first.
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

// planSteps renders a report's steps as "label:mode" in plan order.
func planSteps(rep *PlanReport) string {
	var steps []string
	for _, st := range rep.Steps {
		steps = append(steps, st.Label+":"+st.Mode)
	}
	return strings.Join(steps, " ")
}

// The order reads no statistics: on the skewed graph, where the s atom is by
// far the more selective, the atoms still go fewest-unbound-first in query
// order, so the query text alone decides which one is scanned.
func TestPlanReportOrdersBySelectivity(t *testing.T) {
	db := skewedPlanDB()
	for src, want := range map[string]string{
		"ans(x, z)\nx y : h\ny z : s": "h:scan s:expand",
		"ans(x, z)\ny z : s\nx y : h": "s:scan h:expand-rev",
	} {
		rep, err := MustPrepare(MustParse(src)).Bind(db).PlanReport()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fragment != "CRPQ" {
			t.Fatalf("fragment = %q", rep.Fragment)
		}
		if got := planSteps(rep); got != want {
			t.Fatalf("%q: steps %q, want %q", src, got, want)
		}
	}
}

// A mutation moves the report's revision and nothing else: the order is a
// function of the pattern.
func TestPlanReportRevisionRecompute(t *testing.T) {
	db := skewedPlanDB()
	sess := MustPrepare(MustParse("ans(x, z)\nx y : h\ny z : s")).Bind(db)
	rep1, err := sess.PlanReport()
	if err != nil {
		t.Fatal(err)
	}
	db.AddEdgeNames("c0", 'h', "d0")
	db.AddEdgeNames("b1", 's', "c1")
	rep2, err := sess.PlanReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Revision == rep1.Revision {
		t.Fatal("report revision did not move with the database")
	}
	if got, want := planSteps(rep2), planSteps(rep1); got != want {
		t.Fatalf("steps %q after the mutation, %q before", got, want)
	}
}

func TestExplainCarriesPlan(t *testing.T) {
	db := skewedPlanDB()
	sess := MustPrepare(MustParse("ans(x, z)\nx y : h\ny z : s")).Bind(db)
	resp := sess.Do(Request{Op: "explain"})
	if resp.Err != nil || !resp.OK {
		t.Fatalf("explain: ok=%v err=%v", resp.OK, resp.Err)
	}
	// Bounded explain on a query with a string variable.
	sess2 := MustPrepare(MustParse("ans(x, z)\nx y : $w{h}\ny z : s")).Bind(db)
	resp = sess2.Do(Request{Op: "explain", Semantics: "bounded", K: 1})
	if resp.Err != nil || !resp.OK {
		t.Fatalf("explain bounded: ok=%v err=%v", resp.OK, resp.Err)
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

// TestPlanReportV2Fields pins the report served by cxrpq-serve /plan beyond
// the order: every atom has a step, the modes and reads follow the shape, and
// a bounded-only fragment is ordered like its Σ*-relaxed skeleton.
func TestPlanReportV2Fields(t *testing.T) {
	db := graph.MustParse("u a v\nv a w\nw b u\nu b x\nv a x\nx a u\nw a x\nx b v")
	report := func(t *testing.T, src string) *PlanReport {
		t.Helper()
		rep, err := MustPrepare(MustParse(src)).Bind(db).PlanReport()
		if err != nil {
			t.Fatalf("%q: PlanReport: %v", src, err)
		}
		return rep
	}

	t.Run("redundant acyclic chain", func(t *testing.T) {
		rep := report(t, "ans(x, z)\nx y : a\nx y : a|b\ny z : a")
		if got, want := planSteps(rep), "a:scan a|b:check a:expand"; got != want {
			t.Fatalf("steps %q, want %q: each of the 3 atoms once, the parallel one a check", got, want)
		}
	})
	t.Run("free-connex star", func(t *testing.T) {
		for _, st := range report(t, "ans(x)\nx y1 : a\nx y2 : b").Steps {
			if st.Reads != "from" {
				t.Fatalf("edge %d reads %q, want from: its leaf is read by nothing", st.Edge, st.Reads)
			}
		}
	})
	t.Run("cyclic triangle", func(t *testing.T) {
		rep := report(t, "ans(x)\nx y : a\ny z : a\nz x : b")
		if got, want := planSteps(rep), "a:scan a:expand b:check"; got != want {
			t.Fatalf("steps %q, want %q: the closing atom a check", got, want)
		}
		for _, st := range rep.Steps {
			if st.Reads != "pairs" {
				t.Fatalf("edge %d reads %q, want pairs on a cycle", st.Edge, st.Reads)
			}
		}
	})
	t.Run("bounded fragment orders like its skeleton", func(t *testing.T) {
		// Not vstar-free: only the bounded engine evaluates it, and its leaf
		// joins take the order of the pattern, every variable relaxed away.
		rep := report(t, "ans(x)\nx y : $w{a|b}\ny z : $w+\nz x : b")
		skel := report(t, "ans(x)\nx y : (a|b)*\ny z : (a|b)*\nz x : b")
		if rep.Fragment == "CRPQ" {
			t.Fatalf("fragment %q, want a bounded-only one", rep.Fragment)
		}
		if len(rep.Steps) != len(skel.Steps) {
			t.Fatalf("report %+v, skeleton %+v", rep, skel)
		}
		for i, st := range rep.Steps {
			if sk := skel.Steps[i]; st.Edge != sk.Edge || st.Mode != sk.Mode || st.Reads != sk.Reads {
				t.Fatalf("step %d: %+v, the skeleton's %+v", i, st, sk)
			}
		}
	})
}

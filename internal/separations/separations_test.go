package separations

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
)

func TestQAnBnDistinguishes(t *testing.T) {
	q := QAnBn()
	for _, tc := range []struct {
		n, m int
		want bool
	}{{2, 2, true}, {4, 4, true}, {2, 3, false}, {0, 0, true}, {1, 0, false}} {
		db := DnMPaths(tc.n, tc.m, 'b')
		got, err := ecrpq.EvalBool(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("q_anbn on D_{%d,%d}: got %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestQAnAnDistinguishes(t *testing.T) {
	q := QAnAn()
	for _, tc := range []struct {
		n, m int
		want bool
	}{{2, 2, true}, {3, 3, true}, {2, 4, false}} {
		db := DnMPaths(tc.n, tc.m, 'a')
		got, err := ecrpq.EvalBool(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("q_anan on D_{%d,%d}: got %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

// Lemma 15: q1 accepts D_{σ1,σ2} iff σ1 = σ2 ∈ {a,b} or σ2 = c; the CRPQ
// surrogate (variable relaxed to its domain) wrongly accepts D_{a,b}.
func TestQ1SeparationFromCRPQ(t *testing.T) {
	q1 := Q1()
	if q1.IsCRPQ() {
		t.Fatal("q1 must use a string variable")
	}
	cases := []struct {
		s1, s2 rune
		want   bool
	}{
		{'a', 'a', true},
		{'b', 'b', true},
		{'a', 'c', true},
		{'b', 'c', true},
		{'a', 'b', false},
		{'b', 'a', false},
	}
	for _, tc := range cases {
		db := DSigma(tc.s1, tc.s2)
		resp := cxrpq.Do(q1, db, cxrpq.Request{Op: "bool", Semantics: "bounded", K: 1})
		got, err := resp.OK, resp.Err
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("q1 on D_{%c,%c}: got %v, want %v", tc.s1, tc.s2, got, tc.want)
		}
	}
	// the surrogate confuses D_{a,b} with D_{a,a}
	sur := CRPQSurrogateForQ1()
	resp := cxrpq.Do(sur, DSigma('a', 'b'), cxrpq.Request{Op: "bool"})
	okAB, err := resp.OK, resp.Err
	if err != nil {
		t.Fatal(err)
	}
	if !okAB {
		t.Fatal("surrogate should (wrongly) accept D_{a,b} — that is the point of Lemma 15")
	}
}

// Lemma 16: q2 accepts exactly paths #(a^n1 b)^n2 c(a^n1 b)^n2 #.
func TestQ2Witnesses(t *testing.T) {
	q2 := Q2()
	if q2.IsVStarFree() {
		t.Fatal("q2 uses x and y under stars")
	}
	for _, tc := range []struct {
		n1, n2 int
		want   bool
	}{{1, 1, true}, {2, 2, true}, {1, 3, true}} {
		resp := cxrpq.Do(q2, Q2Witness(tc.n1, tc.n2), cxrpq.Request{Op: "bool", Semantics: "bounded", K: tc.n1 + tc.n2 + 3})
		ok, err := resp.OK, resp.Err
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("q2 on witness(%d,%d): got %v, want %v", tc.n1, tc.n2, ok, tc.want)
		}
	}
	resp := cxrpq.Do(q2, Q2WitnessBroken(1, 2), cxrpq.Request{Op: "bool", Semantics: "bounded", K: 8})
	ok, err := resp.OK, resp.Err
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("q2 must reject the broken witness (differing block lengths)")
	}
}

func TestDescribeFigure5(t *testing.T) {
	edges := DescribeFigure5()
	if len(edges) != 10 {
		t.Fatalf("Figure 5 should list 10 relationships, got %d", len(edges))
	}
}

func TestDBSummary(t *testing.T) {
	s := DBSummary(DnMPaths(2, 2, 'b'))
	if s == "" {
		t.Fatal("empty summary")
	}
}

package oracle_test

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/oracle"
	"cxrpq/internal/workload"
)

// Layered DAGs bound every path length by the number of layers, so the
// word-length-bounded oracle is exact there and must agree with the
// product engine on the full result set.

func TestOracleAgreesWithECRPQEval(t *testing.T) {
	queries := []string{
		"ans(x, y)\nx y : a(a|b)*",
		"ans(x, z)\nx y : (a|b)+\ny z : b(a|b)*",
		"ans(x, y)\nx y : (ab)+|ba",
	}
	for seed := int64(0); seed < 6; seed++ {
		db := workload.Layered(seed, 4, 3, "ab")
		for _, src := range queries {
			q, err := ecrpq.ParseQuery(src, []rune("ab"))
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			want, err := oracle.EvalECRPQ(q, db, 6)
			if err != nil {
				t.Fatalf("seed %d %q: oracle: %v", seed, src, err)
			}
			got, err := ecrpq.Eval(q, db)
			if err != nil {
				t.Fatalf("seed %d %q: engine: %v", seed, src, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d %q: engine %v, oracle %v", seed, src, got.Sorted(), want.Sorted())
			}
		}
	}
}

func TestOracleAgreesWithECRPQEvalEquality(t *testing.T) {
	src := "ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+\nrel equality 0 1"
	for seed := int64(0); seed < 4; seed++ {
		db := workload.Layered(seed*3+1, 3, 2, "ab")
		q, err := ecrpq.ParseQuery(src, []rune("ab"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.EvalECRPQ(q, db, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ecrpq.Eval(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: engine %v, oracle %v", seed, got.Sorted(), want.Sorted())
		}
	}
}

func TestOracleAgreesWithECRPQEvalRelation(t *testing.T) {
	src := "ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+\nrel equal-length 0 1"
	db := workload.Layered(7, 3, 2, "ab")
	q, err := ecrpq.ParseQuery(src, []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalECRPQ(q, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("engine %v, oracle %v", got.Sorted(), want.Sorted())
	}
}

// TestOracleCXRPQAgreesWithVsfEval cross-checks the CXRPQ brute-force
// oracle (including its MatchTuple memoization) against the vstar-free
// engine on a bounded DAG, where the oracle is exact.
func TestOracleCXRPQAgreesWithVsfEval(t *testing.T) {
	db := workload.Layered(11, 4, 2, "ab")
	q := cxrpq.MustParse("ans(s, t)\ns t : $x{a|b}(a|b)*\nt s2 : $x")
	resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval"})
	got, err := resp.Tuples, resp.Err
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalCXRPQ(q, db, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("engine %v, oracle %v", got.Sorted(), want.Sorted())
	}
}

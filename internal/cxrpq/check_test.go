package cxrpq_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// Check must agree with Eval membership on every tuple, across fragments.
func TestCheckAgreesWithEval(t *testing.T) {
	db := workload.Random(31, 6, 14, "abc")
	queries := []struct {
		src     string
		bounded int // -1 = dispatchable fragment
	}{
		{"ans(x, y)\nx m : a(b|c)*\nm y : c+", -1},           // CRPQ
		{"ans(s, t)\ns t : $x{(a|b)b}\nt s : $x", -1},        // simple
		{"ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)c?", -1}, // vsf
		{"ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)+", 1},   // bounded
	}
	for _, qc := range queries {
		q := cxrpq.MustParse(qc.src)
		var res *pattern.TupleSet
		var err error
		if qc.bounded < 0 {
			res, err = tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
		} else {
			res, err = tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: qc.bounded}))
		}
		if err != nil {
			t.Fatalf("%s: %v", qc.src, err)
		}
		// every tuple in q(D) must Check true; a sample of others false
		for _, tup := range res.Sorted() {
			ok, err := check(q, db, qc.bounded, tup)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("%s: Check(%v) = false but tuple ∈ q(D)", qc.src, tup)
			}
		}
		arity := len(q.Pattern.Out)
		count := 0
		for u := 0; u < db.NumNodes() && count < 10; u++ {
			for v := 0; v < db.NumNodes() && count < 10; v++ {
				tup := pattern.Tuple{u, v}[:arity]
				if res.Contains(tup) {
					continue
				}
				ok, err := check(q, db, qc.bounded, tup)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Errorf("%s: Check(%v) = true but tuple ∉ q(D)", qc.src, tup)
				}
				count++
			}
		}
	}
}

func check(q *cxrpq.Query, db *graph.DB, bounded int, tup pattern.Tuple) (bool, error) {
	if bounded < 0 {
		return verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Tuple: tup}))
	}
	return verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Semantics: "bounded", K: bounded, Tuple: tup}))
}

func TestCheckArityAndRepeatedVars(t *testing.T) {
	db := graph.MustParse("u a v\nv a u")
	q := cxrpq.MustParse("ans(x, x)\nx y : a")
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	ok, err := verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Tuple: pattern.Tuple{u, u}}))
	if err != nil || !ok {
		t.Fatalf("Check(u,u) = %v, %v", ok, err)
	}
	// repeated output variable bound to two different nodes is impossible
	ok, err = verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Tuple: pattern.Tuple{u, v}}))
	if err != nil || ok {
		t.Fatalf("Check(u,v) must be false for ans(x,x): %v %v", ok, err)
	}
	if _, err := verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Tuple: pattern.Tuple{u}})); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestECRPQCheckWithGroups(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 b v
u2 a m2
m2 b v2
u3 b m3
m3 a v3
`)
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}},
	}
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range res.Sorted() {
		ok, err := ecrpq.Check(q, db, tup)
		if err != nil || !ok {
			t.Fatalf("Check(%v) should hold: %v %v", tup, ok, err)
		}
	}
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	u3, _ := db.Lookup("u3")
	v3, _ := db.Lookup("v3")
	ok, err := ecrpq.Check(q, db, pattern.Tuple{u, v, u3, v3})
	if err != nil || ok {
		t.Fatalf("ab/ba pair must fail Check: %v %v", ok, err)
	}
}

// A vstar-free query with more branch combinations than a plan materializes
// is checked one streamed combination at a time, under the caller's budget
// and through the result cache like any other. (The over-cap branch used to
// call the budget-less one-shot check: a canceled request ran all 2048
// searches to the end and the verdict was never cached.)
func TestCheckVsfOverCapHonoursBudget(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("ans(x, y)\nx y : ")
	for i := 0; i < 11; i++ { // 2^11 combinations, over the cap of 1024
		fmt.Fprintf(&sb, "($a%d{a}|$b%d{b})", i, i)
	}
	q := cxrpq.MustParse(sb.String() + "\n")
	db := workload.Path("abbabaababb", 1)
	first, last := pattern.Tuple{0, 1}, pattern.Tuple{1, 0} // Path interns its endpoints first

	sess := cxrpq.MustPrepare(q).Bind(db)
	spent := engine.NewBudget(nil, time.Now().Add(-time.Second))
	resp := sess.Do(cxrpq.Request{Op: "check", Tuple: first, Budget: spent})
	if !errors.Is(resp.Err, engine.ErrCanceled) || resp.OK {
		t.Fatalf("check under a spent budget = %v, %v; want false, engine.ErrCanceled", resp.OK, resp.Err)
	}
	for _, c := range []struct {
		tup  pattern.Tuple
		want bool
	}{{first, true}, {last, false}} {
		for call := 0; call < 2; call++ {
			if ok, err := verdict(sess.Do(cxrpq.Request{Op: "check", Tuple: c.tup})); err != nil || ok != c.want {
				t.Fatalf("Check(%v) = %v, %v; want %v", c.tup, ok, err, c.want)
			}
		}
	}
	if st := storeStats(sess); st.ResultHits != 2 {
		t.Fatalf("repeated over-cap checks hit the result cache %d times, want 2", st.ResultHits)
	}
}

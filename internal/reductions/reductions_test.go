package reductions

import (
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/cxrpq"
	"cxrpq/internal/xregex"
)

// wordAutomaton returns an NFA accepting exactly {w}.
func wordAutomaton(w string) *automata.NFA {
	m := automata.New(len(w) + 1)
	for i, r := range w {
		m.AddTr(i, int32(r), i+1)
	}
	m.SetFinal(len(w), true)
	return m
}

// abStar returns an NFA for (a|b)* with one final state.
func abStar() *automata.NFA {
	m := automata.New(1)
	m.AddTr(0, int32('a'), 0)
	m.AddTr(0, int32('b'), 0)
	m.SetFinal(0, true)
	return m
}

func TestAlphaNIShape(t *testing.T) {
	a := AlphaNI()
	if xregex.IsVStarFree(a) {
		t.Fatal("α_ni has z under *: not vstar-free")
	}
	ak := AlphaNIK(3)
	if !xregex.IsVStarFree(ak) {
		t.Fatal("α^k_ni must be vstar-free")
	}
	// α^k_ni matches #w(##w)^{k-1}###
	if !xregex.MatchBool(ak, "#ab##ab##ab###", []rune("ab#")) {
		t.Fatal("α^3_ni should match #ab##ab##ab###")
	}
	if xregex.MatchBool(ak, "#ab##ba##ab###", []rune("ab#")) {
		t.Fatal("α^3_ni must reject differing blocks")
	}
}

func TestTheorem1ReductionPositive(t *testing.T) {
	// Machines with non-empty intersection: {ab} and (a|b)* restricted.
	inst := &NFAIntersectionInstance{Machines: []*automata.NFA{
		wordAutomaton("ab"),
		abStar(),
		wordAutomaton("ab"),
	}}
	if !inst.IntersectionNonEmpty() {
		t.Fatal("oracle: intersection should be non-empty")
	}
	db, err := inst.ToGraphDB()
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate with the vstar-free variant (Theorem 3) via the union eval.
	q, err := inst.ToCXRPQ(true)
	if err != nil {
		t.Fatal(err)
	}
	resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool"})
	ok, err := resp.OK, resp.Err
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("reduction: D |= α^k_ni expected")
	}
	// And with the unrestricted α_ni via image-capped evaluation.
	q1, err := inst.ToCXRPQ(false)
	if err != nil {
		t.Fatal(err)
	}
	resp = cxrpq.Do(q1, db, cxrpq.Request{Op: "bool", Semantics: "bounded", K: 2})
	ok1, err := resp.OK, resp.Err
	if err != nil {
		t.Fatal(err)
	}
	if !ok1 {
		t.Fatal("reduction: D |=^≤2 α_ni expected (witness word ab)")
	}
}

func TestTheorem1ReductionNegative(t *testing.T) {
	// {ab} ∩ {ba} = ∅.
	inst := &NFAIntersectionInstance{Machines: []*automata.NFA{
		wordAutomaton("ab"),
		wordAutomaton("ba"),
	}}
	if inst.IntersectionNonEmpty() {
		t.Fatal("oracle: intersection should be empty")
	}
	db, err := inst.ToGraphDB()
	if err != nil {
		t.Fatal(err)
	}
	q, err := inst.ToCXRPQ(true)
	if err != nil {
		t.Fatal(err)
	}
	resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool"})
	ok, err := resp.OK, resp.Err
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("reduction: D must not satisfy α^k_ni")
	}
}

func TestTheorem1RandomAgreement(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		inst := RandomNFAs(seed, 2, 3)
		db, err := inst.ToGraphDB()
		if err != nil {
			t.Fatal(err)
		}
		q, err := inst.ToCXRPQ(true)
		if err != nil {
			t.Fatal(err)
		}
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool"})
		got, err := resp.OK, resp.Err
		if err != nil {
			t.Fatal(err)
		}
		want := inst.IntersectionNonEmpty()
		if got != want {
			t.Errorf("seed %d: reduction %v, oracle %v", seed, got, want)
		}
	}
}

func TestReachabilityReduction(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inst := RandomReachability(seed, 6, 7)
		db, q, err := inst.ToCRPQ()
		if err != nil {
			t.Fatal(err)
		}
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool"})
		got, err := resp.OK, resp.Err
		if err != nil {
			t.Fatal(err)
		}
		want := inst.Reachable()
		if got != want {
			t.Errorf("seed %d: reduction %v, oracle %v", seed, got, want)
		}
	}
}

func TestHittingSetOracle(t *testing.T) {
	h := &HittingSetInstance{N: 3, Sets: [][]int{{0, 1}, {1, 2}}, K: 1}
	if !h.HasHittingSet() {
		t.Fatal("{1} hits both sets")
	}
	h2 := &HittingSetInstance{N: 4, Sets: [][]int{{0}, {1}, {2}}, K: 2}
	if h2.HasHittingSet() {
		t.Fatal("three disjoint singletons need 3 elements")
	}
}

func TestHittingSetReduction(t *testing.T) {
	cases := []*HittingSetInstance{
		{N: 3, Sets: [][]int{{0, 1}, {1, 2}}, K: 1}, // yes: {1}
		{N: 3, Sets: [][]int{{0}, {2}}, K: 1},       // no
		{N: 3, Sets: [][]int{{0}, {2}}, K: 2},       // yes: {0,2}
		{N: 2, Sets: [][]int{{0, 1}}, K: 1},         // yes
	}
	for i, h := range cases {
		got, err := h.SolveViaReduction()
		if err != nil {
			t.Fatal(err)
		}
		want := h.HasHittingSet()
		if got != want {
			t.Errorf("case %d: reduction %v, oracle %v", i, got, want)
		}
	}
}

func TestHittingSetQueryShape(t *testing.T) {
	h := &HittingSetInstance{N: 2, Sets: [][]int{{0}, {1}}, K: 1}
	q, err := h.ToCXRPQ()
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 7: the xregex is simple and single-edge.
	if !q.IsSimple() {
		t.Fatal("Theorem 7 query must be simple")
	}
	if len(q.Pattern.Edges) != 1 {
		t.Fatal("Theorem 7 query must be single-edge")
	}
}

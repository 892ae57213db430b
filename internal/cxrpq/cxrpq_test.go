package cxrpq_test

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// figure2G1 is G1 of Figure 2: v1 <-x{a|b}- u -(x|c)+-> v2 — in the paper
// the first arc points INTO v1 (v1 has a direct a- or b-predecessor u).
func figure2G1() *cxrpq.Query {
	return cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)+
`)
}

func TestFigure2G1(t *testing.T) {
	// u -a-> v1 and u -a-> m -c-> v2: v2 is a transitive a-or-c successor.
	db := graph.MustParse(`
u a v1
u a m
m c v2
w b v3
w b n
n b v4
w a v5
`)
	q := figure2G1()
	// G1 has $x under +, so it is not vstar-free; the paper (§1.4) notes its
	// image size is necessarily 1, so CXRPQ^≤1 semantics coincide with
	// unrestricted semantics.
	res, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalCXRPQ(q, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatalf("engine %v vs oracle %v", res.Sorted(), want.Sorted())
	}
	v1, _ := db.Lookup("v1")
	v2, _ := db.Lookup("v2")
	v3, _ := db.Lookup("v3")
	v4, _ := db.Lookup("v4")
	v5, _ := db.Lookup("v5")
	if !res.Contains(pattern.Tuple{v1, v2}) {
		t.Errorf("x=a: (v1, v2) expected; got %v", res.Sorted())
	}
	if !res.Contains(pattern.Tuple{v3, v4}) {
		t.Errorf("x=b: (v3, v4) expected")
	}
	// x=b via w but path to v5 uses 'a', which is neither x=b nor c:
	if res.Contains(pattern.Tuple{v3, v5}) {
		t.Errorf("(v3, v5) must not match: a ∉ {x=b, c}")
	}
}

func TestFragmentClassification(t *testing.T) {
	// Paper §1.4 / Figure 2: G4 ∈ CXRPQ^vsf, G2 ∈ CXRPQ^vsf,fl,
	// G3 is not vstar-free, G1 is vstar-free (single-symbol images).
	g1 := figure2G1()
	if g1.IsVStarFree() {
		t.Error("G1 has $x under +: not vstar-free")
	}
	if g1.Fragment() != "CXRPQ" {
		t.Errorf("G1 fragment = %s", g1.Fragment())
	}
	// G2: x{aa|b} on one edge, y{[^ab]*} on another, (x|y) on the third
	g2 := cxrpq.MustParse(`
ans(v1, v2, v3)
v1 v2 : $x{aa|b}
v2 v3 : $y{[^ab]*}
v3 v1 : $x|$y
`)
	if !g2.IsVStarFreeFlat() {
		t.Error("G2 should be in CXRPQ^vsf,fl")
	}
	// G3: x{..+}…(x|y)+ uses variables under +: not vstar-free
	g3 := cxrpq.MustParse(`
ans(v1, v2)
v1 v2 : $x{..+}
v2 v1 : $y{..+}
v1 w : ($x|$y)+
v2 w : ($x|$y)+
`)
	if g3.IsVStarFree() {
		t.Error("G3 must not be vstar-free")
	}
	// G4 of Figure 2: y referenced inside definitions of x and z: vsf but
	// not flat.
	g4 := cxrpq.MustParse(`
ans(v1, v2)
v1 v2 : a*($x{($y a*)|(b*$y)})$z
w v1 : b*($y{c*|d*})
w v2 : $z{$x|$y}|$z{a*}
`)
	if !g4.IsVStarFree() {
		t.Error("G4 should be vstar-free")
	}
	if g4.IsVStarFreeFlat() {
		t.Error("G4 is not flat: y is referenced inside definitions of x and z")
	}
	if g4.Fragment() != "CXRPQ^vsf" {
		t.Errorf("G4 fragment = %s", g4.Fragment())
	}
}

func TestValidateConjunctive(t *testing.T) {
	// Example 3: (α2, α4) is not a conjunctive xregex (α2α4 not sequential:
	// both define x1).
	if _, err := cxrpq.Parse(`
ans()
a b : $x1{(a|b)*}$x3{c*}b$x3
b c : $x4{a*}b$x4($x1{$x2 a})
`); err == nil {
		t.Fatal("two definitions of x1 across components must be rejected")
	}
	// (α3, α4) is a conjunctive xregex.
	if _, err := cxrpq.Parse(`
ans()
a b : $x2*a*$x1
b c : $x4{a*}b$x4($x1{$x2 a})
`); err != nil {
		t.Fatalf("(α3, α4) should validate: %v", err)
	}
	// cyclic variable relation across components
	if _, err := cxrpq.Parse(`
ans()
a b : $x{$y a}
b c : $y{$x b}
`); err == nil {
		t.Fatal("cyclic ≺ must be rejected")
	}
}

// Example 3 of the paper: (w1,w2,w3)=(aab, bbacbc, aa) is NOT a conjunctive
// match for (α1,α2,α3), but (abb, abccbcc, ababaaab) IS (vmap (ab,ab,cc)).
func TestMatchTuplePaperExample3(t *testing.T) {
	c := cxrpq.CXRE{
		mustRx(t, "$x2{$x1|a*}b"),
		mustRx(t, "$x1{(a|b)*}$x3{c*}b$x3"),
		mustRx(t, "$x2*a*$x1"),
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	sigma := []rune("abc")
	if cxrpq.MatchTupleBool(c, []string{"aab", "bbacbc", "aa"}, sigma) {
		t.Fatal("(aab, bbacbc, aa) must not be a conjunctive match")
	}
	vm, ok := cxrpq.MatchTuple(c, []string{"abb", "abccbcc", "ababaaab"}, sigma)
	if !ok {
		t.Fatal("(abb, abccbcc, ababaaab) should be a conjunctive match")
	}
	if vm["x1"] != "ab" || vm["x2"] != "ab" || vm["x3"] != "cc" {
		t.Fatalf("vmap = %v, want (ab, ab, cc)", vm)
	}
}

// §3.1 example: γ1 = (x{a*}∨b*)y, γ2 = y{xaxb}by* — (aaaaaab, aabab…) etc.
func TestMatchTupleSection31(t *testing.T) {
	c := cxrpq.CXRE{
		mustRx(t, "($x{a*}|b*)$y"),
		mustRx(t, "$y{$x a$x b}b$y*"),
	}
	sigma := []rune("ab")
	// x=aa, y=aab+aab? paper: u1 gives (w1,w2) = (aa·a⁵b, a⁵b·b·(a⁵b)²)
	w1 := "aa" + "aaaaab"
	w2 := "aaaaab" + "b" + "aaaaab" + "aaaaab"
	if !cxrpq.MatchTupleBool(c, []string{w1, w2}, sigma) {
		t.Fatal("paper's conjunctive match rejected")
	}
	// (a#aa, a#a³bba³b) with differing y images is NOT a match:
	if cxrpq.MatchTupleBool(c, []string{"aa", "aaabbaaab"}, sigma) {
		t.Fatal("inconsistent variable mapping accepted")
	}
}

func TestEvalSimpleAgainstOracle(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 b v
u b m2
m2 b v
v a u
`)
	// simple conjunctive xregex: x{(a|b)b} shared across two edges
	q := cxrpq.MustParse(`
ans(s, t, s2, t2)
s t : $x{(a|b)b}
s2 t2 : $x
`)
	if !q.IsSimple() {
		t.Fatal("query should be simple")
	}
	res, err := cxrpq.EvalSimple(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalCXRPQ(q, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatalf("engine %v vs oracle %v", res.Sorted(), want.Sorted())
	}
	if res.Len() == 0 {
		t.Fatal("expected matches")
	}
}

func TestEvalVsfAgainstOracle(t *testing.T) {
	db := graph.MustParse(`
u a v1
u a m
m c v2
w b v3
w c n
n c v4
`)
	// vstar-free with alternation over variables: (x|c) on second edge
	q := cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)($x|c)?
`)
	if !q.IsVStarFree() || q.IsSimple() {
		t.Fatalf("fragment = %s", q.Fragment())
	}
	res, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalCXRPQ(q, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatalf("engine %v vs oracle %v", res.Sorted(), want.Sorted())
	}
}

func TestEvalVsfForcedEpsilon(t *testing.T) {
	// x is defined in one branch of edge 1; if the ε/b branch is taken,
	// references of x elsewhere must be forced to ε.
	db := graph.MustParse(`
u b v
u c w
`)
	q := cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a}|b
u v2 : $x c|c
`)
	res, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalCXRPQ(q, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatalf("engine %v vs oracle %v", res.Sorted(), want.Sorted())
	}
	v, _ := db.Lookup("v")
	w, _ := db.Lookup("w")
	// branch b chosen ⇒ x = ε ⇒ second edge must match εc = c: (v, w) holds
	if !res.Contains(pattern.Tuple{v, w}) {
		t.Fatalf("(v, w) expected in %v", res.Sorted())
	}
}

func TestEvalBoundedAgainstOracle(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 a v
u b m2
m2 b v
v c u
`)
	// not vstar-free: x under +
	q := cxrpq.MustParse(`
ans(s, t)
s t : $x{aa|bb}
t s : c$x*c|c
`)
	if q.IsVStarFree() {
		t.Fatal("query should not be vstar-free")
	}
	res, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalCXRPQ(q, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range want.Sorted() {
		if !res.Contains(tup) {
			t.Errorf("bounded eval missing %v", tup)
		}
	}
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	if !res.Contains(pattern.Tuple{u, v}) {
		t.Fatalf("(u, v) expected (x=aa, second edge c branch): %v", res.Sorted())
	}
}

func TestEvalBoundedRespectsBound(t *testing.T) {
	// Image x = "aaa" needs k ≥ 3. Anchor the path with '#' markers so no
	// shorter sub-path can match.
	q := cxrpq.MustParse(`
ans()
s t : #$x{a+}b$x#
`)
	db2 := graph.New()
	s := db2.Node("s")
	tn := db2.Node("t")
	db2.AddPath(s, "#aaabaaa#", tn)
	ok2, err := verdict(cxrpq.Do(q, db2, cxrpq.Request{Op: "bool", Semantics: "bounded", K: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Fatal("k=2 must not admit image aaa")
	}
	ok3, err := verdict(cxrpq.Do(q, db2, cxrpq.Request{Op: "bool", Semantics: "bounded", K: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok3 {
		t.Fatal("k=3 should admit image aaa")
	}
}

func TestEvalLog(t *testing.T) {
	db := graph.New()
	s := db.Node("s")
	tn := db.Node("t")
	db.AddPath(s, "aabaa", tn)
	q := cxrpq.MustParse("ans()\nx y : $v{a+}b$v")
	ok, err := verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "bool", Semantics: "log"}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("log bound (≥3) should admit image aa")
	}
}

func TestInstantiateCRPQ(t *testing.T) {
	q := cxrpq.MustParse(`
ans(s, t)
s t : $x{a|b}c
t s : $x+
`)
	inst, err := q.InstantiateCRPQ(map[string]string{"x": "a"}, []rune("abc"))
	if err != nil {
		t.Fatal(err)
	}
	db := graph.MustParse(`
s a m
m c t
t a s
`)
	res, err := inst.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	si, _ := db.Lookup("s")
	ti, _ := db.Lookup("t")
	if !res.Contains(pattern.Tuple{si, ti}) {
		t.Fatalf("instantiated CRPQ should match: %v", res.Sorted())
	}
	// x=b yields no match on this database
	inst2, err := q.InstantiateCRPQ(map[string]string{"x": "b"}, []rune("abc"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := inst2.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 0 {
		t.Fatalf("x=b should not match: %v", res2.Sorted())
	}
}

func TestEvalDispatch(t *testing.T) {
	db := graph.MustParse("u a v")
	crpqQ := cxrpq.MustParse("ans(x, y)\nx y : a+")
	res, err := tuples(cxrpq.Do(crpqQ, db, cxrpq.Request{Op: "eval"}))
	if err != nil || res.Len() != 1 {
		t.Fatalf("CRPQ dispatch failed: %v %v", res, err)
	}
	nonVsf := cxrpq.MustParse("ans()\nx y : $v{a}$v*")
	if _, err := tuples(cxrpq.Do(nonVsf, db, cxrpq.Request{Op: "eval"})); err == nil {
		t.Fatal("non-vsf query must be rejected by Eval")
	}
	if _, err := verdict(cxrpq.Do(nonVsf, db, cxrpq.Request{Op: "bool"})); err == nil {
		t.Fatal("non-vsf query must be rejected by EvalBool")
	}
}

func mustRx(t *testing.T, src string) xregex.Node {
	t.Helper()
	return xregex.MustParse(src)
}

package cxrpq_test

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// §5.1 walkthrough: γ1 = x{a*y{b*}az} ∨ (x{b*}·(z ∨ y{c*})),
// γ2 = (a* ∨ x)·z{y·(a∨b)}.
func walkthroughCXRE(t *testing.T) cxrpq.CXRE {
	t.Helper()
	return cxrpq.CXRE{
		xregex.MustParse("$x{a*$y{b*}a$z}|($x{b*}($z|$y{c*}))"),
		xregex.MustParse("(a*|$x)$z{$y(a|b)}"),
	}
}

func TestNormalFormWalkthrough(t *testing.T) {
	c := walkthroughCXRE(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	nf, stats, err := cxrpq.NormalForm(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nf {
		if !xregex.IsNormalForm(n) {
			t.Errorf("component %d not in normal form: %s", i, xregex.String(n))
		}
	}
	if stats.AfterStep3 < stats.Input {
		t.Errorf("normal form should not shrink here: %+v", stats)
	}
	// Language preservation, checked by evaluating the original and the
	// normal-form query on a database and against the brute-force oracle.
	// (MatchTuple on the normal form directly would be exponential in the
	// many fresh variables, so we compare q(D) instead.)
	mkQuery := func(labels cxrpq.CXRE) *cxrpq.Query {
		g := &pattern.Graph{
			Out: []string{"s", "t"},
			Edges: []pattern.Edge{
				{From: "s", To: "m", Label: labels[0]},
				{From: "m", To: "t", Label: labels[1]},
			},
		}
		q, err := cxrpq.New(g)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	db := graph.MustParse(`
s0 b m0
m0 c m1
m1 a t0
s0 a m2
m2 b m0
s0 b s0
`)
	qc := mkQuery(c)
	qnf := mkQuery(nf)
	resC, err := tuples(cxrpq.Do(qc, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	resNF, err := tuples(cxrpq.Do(qnf, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	if !resC.Equal(resNF) {
		t.Fatalf("normal form changed q(D): %v vs %v", resC.Sorted(), resNF.Sorted())
	}
	want, err := oracle.EvalCXRPQ(qc, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !resC.Equal(want) {
		t.Fatalf("the union eval %v vs oracle %v", resC.Sorted(), want.Sorted())
	}
}

// §5.3: the chain x1{a}x2{x1x1}x3{x2x2}… blows up exponentially in Step 3,
// while flat conjunctive xregex stay quadratic (Lemma 8).
func TestNormalFormChainBlowup(t *testing.T) {
	chain := func(n int) cxrpq.CXRE {
		src := "$x1{a}"
		for i := 2; i <= n; i++ {
			src += "$x" + itoa(i) + "{$x" + itoa(i-1) + "$x" + itoa(i-1) + "}"
		}
		return cxrpq.CXRE{xregex.MustParse(src)}
	}
	var sizes []int
	for n := 2; n <= 6; n++ {
		c := chain(n)
		_, stats, err := cxrpq.NormalForm(c)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, stats.AfterStep3)
	}
	// exponential growth: size(n+1) ≳ 1.5 · size(n)
	for i := 1; i < len(sizes); i++ {
		if float64(sizes[i]) < 1.5*float64(sizes[i-1]) {
			t.Errorf("chain blow-up not exponential: %v", sizes)
			break
		}
	}

	// flat variant: all variables referenced only outside definitions
	flat := func(n int) cxrpq.CXRE {
		src := "$x1{a*}"
		for i := 2; i <= n; i++ {
			src += "$x" + itoa(i) + "{b*a}"
		}
		for i := 1; i <= n; i++ {
			src += "$x" + itoa(i)
		}
		return cxrpq.CXRE{xregex.MustParse(src)}
	}
	for n := 2; n <= 6; n++ {
		c := flat(n)
		if !c.FlatVars() {
			t.Fatalf("flat(%d) should be flat", n)
		}
		_, stats, err := cxrpq.NormalForm(c)
		if err != nil {
			t.Fatal(err)
		}
		in := stats.Input
		if stats.AfterStep3 > 4*in*in {
			t.Errorf("flat normal form exceeded quadratic bound: %+v", stats)
		}
	}
}

func TestVsfToUnionECRPQer(t *testing.T) {
	db := graph.MustParse(`
u a v1
u a m
m c v2
w b v3
w c n
n c v4
`)
	q := cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)($x|c)?
`)
	union, err := cxrpq.VsfToUnionECRPQer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(union.Members) < 2 {
		t.Fatalf("expected several union members, got %d", len(union.Members))
	}
	for i, m := range union.Members {
		if !m.IsER() {
			t.Fatalf("member %d is not ECRPQ^er", i)
		}
	}
	got, err := ecrpq.EvalUnion(union, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("union %v vs direct %v", got.Sorted(), want.Sorted())
	}
}

func TestBoundedToUnionCRPQ(t *testing.T) {
	db := graph.MustParse(`
u a v1
u a m
m c v2
w b v3
w b n
n b v4
`)
	q := cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)+
`)
	sigma := db.Alphabet()
	union, err := cxrpq.BoundedToUnionCRPQ(q, 1, sigma)
	if err != nil {
		t.Fatal(err)
	}
	got, err := union.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("∪-CRPQ %v vs bounded eval %v", got.Sorted(), want.Sorted())
	}
	if want.Len() == 0 {
		t.Fatal("expected matches")
	}
}

func TestFromECRPQer(t *testing.T) {
	// ECRPQ^er: two edges whose words must be equal and both in (ab)+ / a(ba)*b.
	eq := &ecrpq.Query{
		Pattern: pattern.MustParseQuery(`
ans(x1, y1, x2, y2)
x1 y1 : (ab)+
x2 y2 : a(ba)*b
`),
		Groups: []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}},
	}
	sigma := []rune("ab")
	q, err := cxrpq.FromECRPQer(eq, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsVStarFreeFlat() {
		t.Fatal("Lemma 12 output must be in CXRPQ^vsf,fl")
	}
	db := graph.MustParse(`
u a m1
m1 b v
v a m2
m2 b w
p b q
`)
	got, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ecrpq.Eval(eq, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("CXRPQ %v vs ECRPQ^er %v", got.Sorted(), want.Sorted())
	}
	if got.Len() == 0 {
		t.Fatal("expected matches ((ab) words)")
	}
}

func TestSimpleToECRPQerFreeVariables(t *testing.T) {
	// A free variable (no definition anywhere) shared across two edges must
	// match the same arbitrary word (⟨γ⟩_int semantics, §3.1).
	db := graph.MustParse(`
u a v
u2 a v2
u3 b v3
`)
	q := cxrpq.MustParse(`
ans(x, y, x2, y2)
x y : $w
x2 y2 : $w
`)
	res, err := cxrpq.EvalSimple(q, db)
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
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	u3, _ := db.Lookup("u3")
	v3, _ := db.Lookup("v3")
	// both a-words: fine; a-word with b-word: only via w=ε … a≠b, so (u,v,u3,v3)
	// requires w common to both paths: only ε, but then x=y; so it must NOT hold.
	if res.Contains(pattern.Tuple{u, v, u3, v3}) {
		t.Fatal("free variable must be shared: a-path and b-path cannot both match $w")
	}
}

func TestStep2RenameApart(t *testing.T) {
	// G4-style: two mutually exclusive definitions of z.
	c := cxrpq.CXRE{
		xregex.MustParse("$z{a}b|$z{b*}c"),
		xregex.MustParse("$z d"),
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s1, err := cxrpq.Step1MultiplyOut(c)
	if err != nil {
		t.Fatal(err)
	}
	s2 := cxrpq.Step2RenameApart(s1)
	// after renaming, every variable has at most one definition
	for v := range s2.Vars() {
		if len(xregex.DefBodies(v, []xregex.Node(s2)...)) > 1 {
			t.Fatalf("variable %s still has multiple definitions", v)
		}
	}
	// language preserved on samples
	sigma := []rune("abcd")
	for _, ws := range [][]string{
		{"ab", "ad"}, {"bbc", "bbd"}, {"c", "d"}, {"ab", "bd"}, {"b", "d"},
	} {
		want := cxrpq.MatchTupleBool(c, ws, sigma)
		got := cxrpq.MatchTupleBool(s2, ws, sigma)
		if got != want {
			t.Errorf("step 2 changed membership of %v: got %v want %v", ws, got, want)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

package ecrpq_test

import (
	"errors"
	"testing"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
)

func mustQuery(t *testing.T, src string, groups ...ecrpq.Group) *ecrpq.Query {
	t.Helper()
	q := &ecrpq.Query{Pattern: pattern.MustParseQuery(src), Groups: groups}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCRPQBasic(t *testing.T) {
	// RPQ: pairs connected by a path in a(b)*c
	db := graph.MustParse(`
n0 a n1
n1 b n1
n1 c n2
n0 a n3
n3 c n4
`)
	q := mustQuery(t, "ans(x, y)\nx y : ab*c")
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("expected 2 pairs, got %v", res.Sorted())
	}
	n0, _ := db.Lookup("n0")
	n2, _ := db.Lookup("n2")
	if !res.Contains(pattern.Tuple{n0, n2}) {
		t.Fatal("missing (n0, n2)")
	}
}

func TestCRPQConjunction(t *testing.T) {
	// G3 of Figure 1: v1 with a biological ancestor that is also an
	// academical ancestor: v1 <-p+- z and z -s+-> v1 … modelled as two arcs.
	db := graph.MustParse(`
anna p bob
bob p carl
anna s carl
dora p emil
`)
	// ans(v): exists z: z -p+-> v and z -s+-> v
	q := mustQuery(t, "ans(v)\nz v : p+\nz v : s+")
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	carl, _ := db.Lookup("carl")
	if res.Len() != 1 || !res.Contains(pattern.Tuple{carl}) {
		t.Fatalf("expected {carl}, got %v", res.Sorted())
	}
}

func TestBooleanQuery(t *testing.T) {
	db := graph.MustParse("u a v")
	q := mustQuery(t, "ans()\nx y : a")
	ok, err := ecrpq.EvalBool(q, db)
	if err != nil || !ok {
		t.Fatalf("D |= q expected, got %v %v", ok, err)
	}
	q2 := mustQuery(t, "ans()\nx y : b")
	ok, err = ecrpq.EvalBool(q2, db)
	if err != nil || ok {
		t.Fatalf("D |= q2 not expected, got %v %v", ok, err)
	}
}

func TestEqualityGroup(t *testing.T) {
	// Two edges must carry the same word from (a|b)*.
	db := graph.MustParse(`
u a m1
m1 b v
u2 a m2
m2 b v2
u3 b m3
m3 a v3
`)
	q := mustQuery(t, "ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+",
		ecrpq.Group{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}})
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// cross-check with brute force
	want, err := oracle.EvalECRPQ(q, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatalf("engine %v vs oracle %v", res.Sorted(), want.Sorted())
	}
	// ab-paths pair with ab-paths and ba with ba, but ab never with ba:
	u, _ := db.Lookup("u")
	u3, _ := db.Lookup("u3")
	v, _ := db.Lookup("v")
	v3, _ := db.Lookup("v3")
	if !res.Contains(pattern.Tuple{u, v, u, v}) {
		t.Fatal("missing reflexive ab pair")
	}
	if res.Contains(pattern.Tuple{u, v, u3, v3}) {
		t.Fatal("ab must not pair with ba")
	}
}

func TestEqualityEpsilon(t *testing.T) {
	// equality groups satisfied by ε-paths (length-0)
	db := graph.MustParse("u a v")
	q := mustQuery(t, "ans(x, y)\nx x : a*\ny y : b*",
		ecrpq.Group{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}})
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// only the empty word is shared between a* and b*: all (x, y) pairs
	if res.Len() != 4 {
		t.Fatalf("expected all 4 node pairs via ε, got %v", res.Sorted())
	}
}

func TestEqualLengthRelation(t *testing.T) {
	// q_anbn-style: paths canc and dbmd with n = m (Theorem 9, Fig. 6).
	mk := func(n, m int) *graph.DB {
		db := graph.New()
		r0 := db.Node("r0")
		rest := "c"
		for i := 0; i < n; i++ {
			rest += "a"
		}
		rest += "c"
		rt := db.Node("rt")
		db.AddPath(r0, rest, rt)
		s0 := db.Node("s0")
		w := "d"
		for i := 0; i < m; i++ {
			w += "b"
		}
		w += "d"
		st := db.Node("st")
		db.AddPath(s0, w, st)
		return db
	}
	sigma := []rune("abcd")
	q := func() *ecrpq.Query {
		return &ecrpq.Query{
			Pattern: pattern.MustParseQuery(`
ans()
x y1 : c
y1 y2 : a*
y2 z : c
x2 w1 : d
w1 w2 : b*
w2 z2 : d
`),
			Groups: []ecrpq.Group{{Edges: []int{1, 4}, Rel: ecrpq.EqualLength(2, sigma)}},
		}
	}
	for _, tc := range []struct {
		n, m int
		want bool
	}{{2, 2, true}, {3, 3, true}, {2, 3, false}, {0, 0, true}, {0, 1, false}} {
		db := mk(tc.n, tc.m)
		got, err := ecrpq.EvalBool(q(), db)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("n=%d m=%d: got %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestPrefixRelation(t *testing.T) {
	db := graph.MustParse(`
u a v
v b w
u2 a v2
`)
	sigma := []rune("ab")
	q := mustQuery(t, "ans(x1, y1, x2, y2)\nx1 y1 : (a|b)*\nx2 y2 : (a|b)*",
		ecrpq.Group{Edges: []int{0, 1}, Rel: ecrpq.PrefixRelation(sigma)})
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalECRPQ(q, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatalf("engine %v vs oracle %v", res.Sorted(), want.Sorted())
	}
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	w, _ := db.Lookup("w")
	// "a" is a prefix of "ab"
	if !res.Contains(pattern.Tuple{u, v, u, w}) {
		t.Fatal("prefix pair (a, ab) missing")
	}
	// "ab" is not a prefix of "a"
	if res.Contains(pattern.Tuple{u, w, u, v}) {
		t.Fatal("(ab, a) should not be in prefix relation")
	}
}

func TestEqualityMatchesGenericNFA(t *testing.T) {
	// The specialized equality product must agree with the generic
	// NFA-relation product on the explicit equality NFA.
	db := graph.MustParse(`
a x b
b y c
c x a
a y d
d x a
`)
	sigma := []rune("xy")
	pat := "ans(p, q, r, s)\np q : [xy]+\nr s : [xy]+"
	q1 := mustQuery(t, pat, ecrpq.Group{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}})
	q2 := mustQuery(t, pat, ecrpq.Group{Edges: []int{0, 1}, Rel: ecrpq.EqualityNFA(2, sigma)})
	r1, err := ecrpq.Eval(q1, db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ecrpq.Eval(q2, db)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatalf("equality %v vs generic %v", r1.Sorted(), r2.Sorted())
	}
	if r1.Len() == 0 {
		t.Fatal("expected matches")
	}
}

func TestUnionEval(t *testing.T) {
	db := graph.MustParse("u a v\nw b z")
	u := &ecrpq.Union{Members: []*ecrpq.Query{
		{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : a")},
		{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : b")},
	}}
	res, err := ecrpq.EvalUnion(u, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("union should have 2 tuples, got %v", res.Sorted())
	}
	ok, err := ecrpq.EvalUnionBool(u, db)
	if err != nil || !ok {
		t.Fatal("union bool failed")
	}
	// The other operations over the same members: check, stream, any-k roots.
	ms := ecrpq.MembersOf(db, u.Members...)
	for _, tup := range res.Sorted() {
		if ok, err := checkUnion(ms, u, db, tup); err != nil || !ok {
			t.Fatalf("check(%v) = %v, %v", tup, ok, err)
		}
	}
	if ok, err := checkUnion(ms, u, db, pattern.Tuple{0, 0}); err != nil || ok {
		t.Fatalf("check(non-answer) = %v, %v", ok, err)
	}
	streamed := pattern.NewTupleSet()
	if err := streamUnion(ms, ecrpq.Options{}, func(row []int32, _ int) bool {
		if !streamed.AddRow(row) {
			t.Fatalf("the union stream repeats %v", row)
		}
		return true
	}); err != nil || !streamed.Equal(res) {
		t.Fatalf("union stream %v, %v; want %v", streamed.Sorted(), err, res.Sorted())
	}
	ak := ecrpq.NewAnyK(ecrpq.Options{})
	if err := ak.AddUnion(ms, nil); err != nil {
		t.Fatal(err)
	}
	ranked := pattern.NewTupleSet()
	for row, cost, ok := ak.Next(); ok; row, cost, ok = ak.Next() {
		if cost != 1 {
			t.Fatalf("any-k row %v at cost %d, want 1", row, cost)
		}
		ranked.AddRow(row)
	}
	if !ranked.Equal(res) {
		t.Fatalf("any-k over the union %v, want %v", ranked.Sorted(), res.Sorted())
	}
	// A member that cannot be built ends the sequential operations with its error.
	bad := seq(db, u.Members[0], errors.New("unbuilt"))
	if err := streamUnion(bad, ecrpq.Options{}, func([]int32, int) bool { return true }); err == nil {
		t.Fatal("union stream swallowed a member error")
	}
	if err := ecrpq.NewAnyK(ecrpq.Options{}).AddUnion(bad, nil); err == nil {
		t.Fatal("AddUnion swallowed a member error")
	}
}

// checkUnion decides t̄ ∈ ⋃ qi(D) over the members ms of u.
func checkUnion(ms ecrpq.Members, u *ecrpq.Union, db *graph.DB, t pattern.Tuple) (bool, error) {
	pre, ok, err := ecrpq.PreBind(u.Members[0].Pattern.Out, db, t)
	if err != nil || !ok {
		return false, err
	}
	return ecrpq.ExistsUnion(ms, pre, ecrpq.Options{})
}

func TestValidateErrors(t *testing.T) {
	pat := pattern.MustParseQuery("ans()\nx y : a\ny z : b")
	for _, q := range []*ecrpq.Query{
		{Pattern: pattern.MustParseQuery("ans()\nx y : $v{a}")},                              // variables in label
		{Pattern: pat, Groups: []ecrpq.Group{{Edges: []int{0}, Rel: &ecrpq.Equality{N: 2}}}}, // arity mismatch
		{Pattern: pat, Groups: []ecrpq.Group{{Edges: []int{0, 5}, Rel: &ecrpq.Equality{N: 2}}}},
		{Pattern: pat, Groups: []ecrpq.Group{
			{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}},
			{Edges: []int{1, 0}, Rel: &ecrpq.Equality{N: 2}},
		}},
	} {
		if err := q.Validate(); err == nil {
			t.Errorf("expected validation error for %+v", q)
		}
	}
}

func TestOracleAgreementRandom(t *testing.T) {
	// Cross-validate engine vs brute force on a family of small graphs.
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		db := randomGraph(seed, 5, 8, "ab")
		q := mustQuery(t, "ans(x, y)\nx z : a(a|b)*\nz y : b+")
		got, err := ecrpq.Eval(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.EvalECRPQ(q, db, 5)
		if err != nil {
			t.Fatal(err)
		}
		// the oracle only sees words up to length 5; engine ⊇ oracle, and on
		// these small graphs equality should hold for most seeds — check
		// oracle ⊆ engine strictly
		for _, tuple := range want.Sorted() {
			if !got.Contains(tuple) {
				t.Errorf("seed %d: engine missing %v", seed, tuple)
			}
		}
	}
}

func TestOracleAgreementEqualityRandom(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		db := randomGraph(seed, 4, 7, "ab")
		q := mustQuery(t, "ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : a(a|b)*",
			ecrpq.Group{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}})
		got, err := ecrpq.Eval(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.EvalECRPQ(q, db, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, tuple := range want.Sorted() {
			if !got.Contains(tuple) {
				t.Errorf("seed %d: engine missing %v", seed, tuple)
			}
		}
	}
}

func randomGraph(seed int64, nodes, edges int, alphabet string) *graph.DB {
	s := uint64(seed)
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	db := graph.New()
	for i := 0; i < nodes; i++ {
		db.AddNode()
	}
	al := []rune(alphabet)
	for i := 0; i < edges; i++ {
		u := int(next(uint64(nodes)))
		v := int(next(uint64(nodes)))
		r := al[next(uint64(len(al)))]
		db.AddEdge(u, r, v)
	}
	return db
}

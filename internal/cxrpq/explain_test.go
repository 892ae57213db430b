package cxrpq_test

import (
	"reflect"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

func TestFindWitnessUnary(t *testing.T) {
	db := graph.MustParse("u a m\nm b v")
	q := &ecrpq.Query{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : ab")}
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	w, ok, err := ecrpq.FindWitness(q, db, pattern.Tuple{u, v})
	if err != nil || !ok {
		t.Fatalf("witness not found: %v %v", ok, err)
	}
	if w.Words[0] != "ab" {
		t.Fatalf("witness word = %q, want ab", w.Words[0])
	}
	if w.NodeOf["x"] != u || w.NodeOf["y"] != v {
		t.Fatalf("node assignment wrong: %v", w.NodeOf)
	}
	// no witness for a non-answer
	_, ok, err = ecrpq.FindWitness(q, db, pattern.Tuple{v, u})
	if err != nil || ok {
		t.Fatalf("unexpected witness: %v %v", ok, err)
	}
}

func TestFindWitnessEqualityGroup(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 b v
u2 a m2
m2 b v2
`)
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans()\nx1 y1 : (a|b)+\nx2 y2 : a(a|b)*"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}},
	}
	w, ok, err := ecrpq.FindWitness(q, db, nil)
	if err != nil || !ok {
		t.Fatalf("witness not found: %v %v", ok, err)
	}
	if w.Words[0] != w.Words[1] {
		t.Fatalf("equality witness words differ: %q vs %q", w.Words[0], w.Words[1])
	}
	if w.Words[0] == "" {
		t.Fatal("equality witness should be non-empty (regexes require ≥1 symbol)")
	}
}

func TestFindWitnessEqualLength(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 a v
u2 b m2
m2 b v2
`)
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans()\nx1 y1 : a+\nx2 y2 : b+"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: ecrpq.EqualLength(2, []rune("ab"))}},
	}
	w, ok, err := ecrpq.FindWitness(q, db, nil)
	if err != nil || !ok {
		t.Fatalf("witness not found: %v %v", ok, err)
	}
	if len(w.Words[0]) != len(w.Words[1]) {
		t.Fatalf("equal-length violated: %q vs %q", w.Words[0], w.Words[1])
	}
}

func TestExplainVsf(t *testing.T) {
	db := graph.MustParse(`
u a v1
u a m
m c v2
`)
	q := cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)($x|c)?
`)
	ex, ok, err := cxrpq.ExplainVsf(q, db, nil)
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["x"] != "a" {
		t.Fatalf("image of x = %q, want a", ex.Images["x"])
	}
	if len(ex.Words) != 2 || ex.Words[0] != "a" {
		t.Fatalf("edge words = %v", ex.Words)
	}
	// the witness words must be a conjunctive match of the query's CXRE
	if !cxrpq.MatchTupleBool(q.CXRE(), ex.Words, db.Alphabet()) {
		t.Fatalf("explanation words %v are not a conjunctive match", ex.Words)
	}
}

func TestExplainVsfWithNonBasicDefs(t *testing.T) {
	// Step 3 eliminates z{x a}; the explanation must still report z's image.
	db := graph.New()
	s := db.Node("s")
	tn := db.Node("t")
	db.AddPath(s, "ba", tn)
	u := db.Node("u")
	v := db.Node("v")
	db.AddPath(u, "ba", v)
	q := cxrpq.MustParse(`
ans()
s t : $z{$x{b}a}
u v : $z
`)
	ex, ok, err := cxrpq.ExplainVsf(q, db, nil)
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["z"] != "ba" {
		t.Fatalf("image of z = %q, want ba (images: %v)", ex.Images["z"], ex.Images)
	}
	if ex.Images["x"] != "b" {
		t.Fatalf("image of x = %q, want b", ex.Images["x"])
	}
}

func TestExplainBounded(t *testing.T) {
	db := graph.New()
	s := db.Node("s")
	tn := db.Node("t")
	db.AddPath(s, "#aabaa#", tn)
	q := cxrpq.MustParse("ans()\nx y : #$v{a+}b$v#")
	ex, ok, err := cxrpq.ExplainBounded(q, db, 3, nil)
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["v"] != "aa" {
		t.Fatalf("image of v = %q, want aa", ex.Images["v"])
	}
	if ex.Words[0] != "#aabaa#" {
		t.Fatalf("edge word = %q", ex.Words[0])
	}
}

func TestExplainAliasChain(t *testing.T) {
	// x{y} aliases: x's image equals y's.
	q := &cxrpq.Query{Pattern: &pattern.Graph{
		Out: nil,
		Edges: []pattern.Edge{
			{From: "p", To: "q", Label: xregex.MustParse("$y{a}$x{$y}")},
			{From: "r", To: "s", Label: xregex.MustParse("$x")},
		},
	}}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// p→q must read "aa" (y then x=y); r→s reads "a".
	db2 := graph.New()
	p := db2.Node("p")
	qq := db2.Node("q")
	db2.AddPath(p, "aa", qq)
	r := db2.Node("r")
	ss := db2.Node("s")
	db2.AddPath(r, "a", ss)
	ex, ok, err := cxrpq.ExplainVsf(q, db2, nil)
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["x"] != "a" || ex.Images["y"] != "a" {
		t.Fatalf("alias images wrong: %v", ex.Images)
	}
}

// ExplainBounded reports the first witness in enumeration order: variables in
// ≺-topological order, candidate images ε first and then by length and
// alphabet, the leaf search in planner order. These are the bounded queries
// of TestCheckAgreesWithEval and TestSessionRelCacheEviction on their
// graphs; the witnesses are the ones the enumerate-then-filter engine
// reported, so a candidate walk that lists the same words in another order
// shows up here.
func TestExplainBoundedFirstWitnessPinned(t *testing.T) {
	for _, c := range []struct {
		db     *graph.DB
		src    string
		k      int
		nodeOf map[string]int
		words  []string
		images map[string]string
	}{
		{workload.Random(31, 6, 14, "abc"), "ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)+", 1,
			map[string]int{"u": 1, "v1": 0, "v2": 0}, []string{"a", "a"}, map[string]string{"x": "a"}},
		{workload.Random(11, 6, 14, "abc"), "ans(p, q)\np m : $x{a|b}c?\nm n : $y{$x|b}($x|$y)\nn q : $x+|b\n", 2,
			map[string]int{"m": 2, "n": 2, "p": 2, "q": 0}, []string{"b", "bb", "bb"}, map[string]string{"x": "b", "y": "b"}},
	} {
		ex, ok, err := cxrpq.ExplainBounded(cxrpq.MustParse(c.src), c.db, c.k, nil)
		if err != nil || !ok {
			t.Fatalf("%s: explain failed: %v %v", c.src, ok, err)
		}
		if !reflect.DeepEqual(ex.NodeOf, c.nodeOf) || !reflect.DeepEqual(ex.Words, c.words) || !reflect.DeepEqual(ex.Images, c.images) {
			t.Fatalf("%s: first witness nodes %v words %q images %v, want %v %q %v",
				c.src, ex.NodeOf, ex.Words, ex.Images, c.nodeOf, c.words, c.images)
		}
	}
}

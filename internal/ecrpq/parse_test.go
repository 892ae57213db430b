package ecrpq_test

import (
	"strings"
	"testing"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
)

func TestParseQueryRelations(t *testing.T) {
	sigma := []rune("ab")
	q, err := ecrpq.ParseQuery(`
ans(x1, y1, x2, y2)
x1 y1 : (a|b)+
x2 y2 : (a|b)+
rel equality 0 1
`, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Groups) != 1 || !q.IsER() {
		t.Fatalf("groups = %+v", q.Groups)
	}
	db := graph.MustParse("u a m\nm b v\nu2 a m2\nm2 b v2")
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// every pair of equal-word paths: the "a" prefixes, "b" suffixes and
	// "ab" full paths of both chains pair with each other: 3 word classes ×
	// 2² ordered pairs = 12
	if res.Len() != 12 {
		t.Fatalf("res = %v", res.Sorted())
	}
}

// A line past bufio.Scanner's 64 KiB token limit is read like any other:
// the relation line after it is not dropped.
func TestParseQueryLongLine(t *testing.T) {
	long := strings.Repeat("a|", 40_000) + "a" // 80 KB
	q, err := ecrpq.ParseQuery("ans(x, y)\nx y : b\nx y : "+long+"\nrel equality 0 1", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Pattern.Edges) != 2 || len(q.Groups) != 1 {
		t.Fatalf("parsed %d edges and %d relations, want 2 and 1", len(q.Pattern.Edges), len(q.Groups))
	}
}

func TestParseQueryAllRelationKinds(t *testing.T) {
	sigma := []rune("ab")
	for _, src := range []string{
		"ans()\nx y : a*\nu v : a*\nrel equal-length 0 1",
		"ans()\nx y : a*\nu v : a*\nrel prefix 0 1",
		"ans()\nx y : a*\nu v : a*\nrel hamming:1 0 1",
		"ans()\nx y : a*\nu v : a*\nw z : a*\nrel equality 0 1 2",
	} {
		if _, err := ecrpq.ParseQuery(src, sigma); err != nil {
			t.Errorf("ParseQuery(%q): %v", src, err)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	sigma := []rune("ab")
	for _, src := range []string{
		"ans()\nx y : a*\nrel equality 0",             // arity < 2
		"ans()\nx y : a*\nrel prefix 0 0",             // duplicate edge in group
		"ans()\nx y : a*\nrel equality 0 7",           // out of range
		"ans()\nx y : a*\nrel nosuch 0 1",             // unknown kind
		"ans()\nx y : a*\nrel hamming:x 0 1",          // bad distance
		"ans()\nx y : a*\nu v : a*\nrel prefix 0 1 1", // prefix arity
	} {
		if _, err := ecrpq.ParseQuery(src, sigma); err == nil {
			t.Errorf("ParseQuery(%q): expected error", src)
		}
	}
}

func TestQueryStringRoundTripEquality(t *testing.T) {
	sigma := []rune("ab")
	q := ecrpq.MustParseQuery("ans(x, y)\nx y : a+\nu v : .*\nrel equality 0 1", sigma)
	out := q.String()
	if !strings.Contains(out, "rel equality 0 1") {
		t.Fatalf("String() lost the relation: %s", out)
	}
	q2, err := ecrpq.ParseQuery(out, sigma)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if len(q2.Groups) != 1 {
		t.Fatal("round trip lost group")
	}
}

func TestHammingQueryEndToEnd(t *testing.T) {
	sigma := []rune("ab")
	// two 2-letter paths differing in at most one position
	db := graph.MustParse(`
u a m
m b v
u2 a m2
m2 a v2
u3 b m3
m3 a v3
`)
	q := ecrpq.MustParseQuery(`
ans(x1, y1, x2, y2)
x1 y1 : ..
x2 y2 : ..
rel hamming:1 0 1
`, sigma)
	res, err := ecrpq.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	u2, _ := db.Lookup("u2")
	v2, _ := db.Lookup("v2")
	u3, _ := db.Lookup("u3")
	v3, _ := db.Lookup("v3")
	if !res.Contains([]int{u, v, u2, v2}) {
		t.Error("ab vs aa (distance 1) should match")
	}
	if res.Contains([]int{u, v, u3, v3}) {
		t.Error("ab vs ba (distance 2) must not match")
	}
}

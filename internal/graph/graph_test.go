package graph

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `
# parent/supervisor example
u1 p u2
u2 s u3
u3 p u1
`

func TestParseAndBasics(t *testing.T) {
	d := MustParse(sample)
	if d.NumNodes() != 3 || d.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", d.NumNodes(), d.NumEdges())
	}
	if got := string(d.Alphabet()); got != "ps" {
		t.Fatalf("alphabet = %q", got)
	}
	u1, _ := d.Lookup("u1")
	u3, _ := d.Lookup("u3")
	if !d.HasPath(u1, "ps", u3) {
		t.Fatal("u1 -p-> u2 -s-> u3 should exist")
	}
	if !d.HasPath(u1, "", u1) {
		t.Fatal("every node has an ε-path to itself")
	}
	if d.HasPath(u1, "sp", u3) {
		t.Fatal("no sp path from u1")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("a b"); err == nil {
		t.Fatal("two fields should fail")
	}
	if _, err := Parse("a xy b"); err == nil {
		t.Fatal("multi-rune label should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	d := MustParse(sample)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumNodes() != d.NumNodes() || d2.NumEdges() != d.NumEdges() {
		t.Fatal("round trip changed graph size")
	}
}

func TestAddPath(t *testing.T) {
	d := New()
	s := d.Node("s")
	tt := d.Node("t")
	d.AddPath(s, "###", tt)
	if !d.HasPath(s, "###", tt) {
		t.Fatal("AddPath should create the labelled path")
	}
	if d.NumNodes() != 4 {
		t.Fatalf("expected 2 intermediate nodes, total 4, got %d", d.NumNodes())
	}
}

func TestPathLabels(t *testing.T) {
	d := MustParse("a x b\nb y c\nc x a")
	labels := d.PathLabels(3, 0)
	// cycle a -x-> b -y-> c -x-> a: all rotations of the xyx pattern appear
	want := map[string]bool{
		"": true, "x": true, "y": true,
		"xy": true, "yx": true, "xx": true,
		"xyx": true, "yxx": true, "xxy": true,
	}
	for _, w := range labels {
		if !want[w] {
			t.Errorf("unexpected path label %q", w)
		}
		delete(want, w)
	}
	if len(want) > 0 {
		t.Errorf("missing path labels: %v", want)
	}
	if got := d.PathLabels(3, 2); len(got) != 2 {
		t.Errorf("cap not honoured: %v", got)
	}
}

func TestPathLabelsOrdered(t *testing.T) {
	// length-then-lexicographic order, ε first (the bitset walk must emit
	// each level already sorted)
	d := MustParse("a x b\nb y c\nc x a\na z c")
	labels := d.PathLabels(2, 0)
	for i := 1; i < len(labels); i++ {
		a, b := labels[i-1], labels[i]
		if len(a) > len(b) || (len(a) == len(b) && a >= b) {
			t.Fatalf("labels out of order at %d: %q before %q (all: %v)", i, a, b, labels)
		}
	}
}

func TestHasPathOfLen(t *testing.T) {
	// chain of 3 edges: paths of every length up to 3, none longer
	d := MustParse("n0 a n1\nn1 b n2\nn2 a n3")
	for n := 0; n <= 3; n++ {
		if !d.HasPathOfLen(n) {
			t.Errorf("chain has a path of length %d", n)
		}
	}
	if d.HasPathOfLen(4) {
		t.Error("chain has no path of length 4")
	}
	// a cycle has paths of every length
	c := MustParse("a x b\nb x a")
	if !c.HasPathOfLen(100) {
		t.Error("cycle has paths of every length")
	}
	// agree with the PathLabels-growth definition
	for n := 1; n <= 5; n++ {
		want := len(d.PathLabels(n, 0)) > len(d.PathLabels(n-1, 0))
		if got := d.HasPathOfLen(n); got != want {
			t.Errorf("HasPathOfLen(%d) = %v, PathLabels growth says %v", n, got, want)
		}
	}
	empty := New()
	if empty.HasPathOfLen(1) {
		t.Error("empty graph has no paths")
	}
	if !MustParse("a x a").HasPathOfLen(0) {
		t.Error("length-0 paths exist at every node")
	}
}

func TestPathWordsBetween(t *testing.T) {
	d := MustParse("a x b\nb y c\na z c")
	ai, _ := d.Lookup("a")
	ci, _ := d.Lookup("c")
	words := d.PathWordsBetween(ai, ci, 2)
	if len(words) != 2 || words[0] != "z" || words[1] != "xy" {
		t.Fatalf("words = %v, want [z xy]", words)
	}
	if got := d.PathWordsBetween(ai, ai, 2); len(got) != 1 || got[0] != "" {
		t.Fatalf("self words = %v, want [ε]", got)
	}
}

func TestMultigraph(t *testing.T) {
	// Multiple edges between the same nodes with different labels.
	d := New()
	u, v := d.Node("u"), d.Node("v")
	d.AddEdge(u, 'a', v)
	d.AddEdge(u, 'b', v)
	d.AddEdge(u, 'a', v) // parallel duplicate allowed (multigraph)
	if d.NumEdges() != 3 {
		t.Fatalf("edges = %d", d.NumEdges())
	}
	if !strings.Contains(string(d.Alphabet()), "a") {
		t.Fatal("alphabet missing a")
	}
}

func TestAlphabetCached(t *testing.T) {
	d := MustParse("u b v\nv a w")
	a1 := d.Alphabet()
	if string(a1) != "ab" {
		t.Fatalf("Alphabet = %q, want %q", string(a1), "ab")
	}
	a2 := d.Alphabet()
	if &a1[0] != &a2[0] {
		t.Fatal("Alphabet not cached: repeated calls returned distinct slices")
	}
	d.AddEdgeNames("w", 'c', "u")
	a3 := d.Alphabet()
	if string(a3) != "abc" {
		t.Fatalf("Alphabet after mutation = %q, want %q", string(a3), "abc")
	}
	if string(a1) != "ab" {
		t.Fatal("previously returned alphabet slice was mutated")
	}
	// Adding a node (no new label) still bumps the revision; the recomputed
	// alphabet must stay correct.
	d.AddNode()
	if string(d.Alphabet()) != "abc" {
		t.Fatal("alphabet wrong after node-only mutation")
	}
}

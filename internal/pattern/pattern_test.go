package pattern

import (
	"strings"
	"testing"

	"cxrpq/internal/xregex"
)

func TestParseQuery(t *testing.T) {
	q := MustParseQuery(`
# G1 of Figure 2
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)+
`)
	if len(q.Out) != 2 || q.Out[0] != "v1" || q.Out[1] != "v2" {
		t.Fatalf("out = %v", q.Out)
	}
	if len(q.Edges) != 2 {
		t.Fatalf("edges = %d", len(q.Edges))
	}
	if got := q.Edges[0].From; got != "u" {
		t.Fatalf("edge0 from = %s", got)
	}
	if xregex.String(q.Edges[1].Label) != "($x|c)+" {
		t.Fatalf("edge1 label = %s", xregex.String(q.Edges[1].Label))
	}
	vars := q.Vars()
	if len(vars) != 3 {
		t.Fatalf("vars = %v", vars)
	}
}

func TestParseQueryBooleanAndErrors(t *testing.T) {
	q := MustParseQuery("ans()\nx y : a*")
	if !q.IsBoolean() {
		t.Fatal("ans() should be Boolean")
	}
	for _, bad := range []string{
		"x y : a",              // missing ans
		"ans(x)\ny z : a",      // output var not in pattern
		"ans()\nx : a",         // malformed edge head
		"ans()\nx y a",         // missing colon
		"ans()\nx y : $v{a$v}", // invalid xregex
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q): expected error", bad)
		}
	}
}

// A line past bufio.Scanner's 64 KiB token limit is read like any other:
// the edge after it, and an error in it, are not dropped.
func TestParseQueryLongLine(t *testing.T) {
	long := strings.Repeat("a|", 40_000) + "a" // 80 KB
	q, err := ParseQuery("ans(x, y)\nx y : b\nx y : " + long + "\ny z : c")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Edges) != 3 {
		t.Fatalf("parsed %d edges, want 3", len(q.Edges))
	}
	if _, err := ParseQuery("ans(x, y)\nx y : b\nx y : " + long + "\ny z"); err == nil {
		t.Fatal("a malformed line after a long one parsed")
	}
}

func TestStringRoundTrip(t *testing.T) {
	q := MustParseQuery("ans(x)\nx y : a(b|c)*\ny x : $v{a}$v")
	q2, err := ParseQuery(q.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, q.String())
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

func TestTupleSet(t *testing.T) {
	s := NewTupleSet()
	if !s.Add(Tuple{1, 2}) || s.Add(Tuple{1, 2}) {
		t.Fatal("Add dedup broken")
	}
	s.Add(Tuple{0, 5})
	sorted := s.Sorted()
	if len(sorted) != 2 || sorted[0][0] != 0 {
		t.Fatalf("sorted = %v", sorted)
	}
	o := NewTupleSet()
	o.Add(Tuple{0, 5})
	o.Add(Tuple{1, 2})
	if !s.Equal(o) {
		t.Fatal("sets should be equal")
	}
	o.Add(Tuple{9, 9})
	if s.Equal(o) {
		t.Fatal("sets should differ")
	}
}

func TestSizeAndClone(t *testing.T) {
	q := MustParseQuery("ans()\nx y : ab*")
	if q.Size() < 4 {
		t.Fatalf("size = %d", q.Size())
	}
	c := q.Clone()
	if c.String() != q.String() {
		t.Fatal("clone mismatch")
	}
}

// TestTupleKeyInjective: the compact binary Key must distinguish every
// distinct tuple, including length-vs-value boundaries the old decimal
// print separated with brackets and spaces.
func TestTupleKeyInjective(t *testing.T) {
	tuples := []Tuple{
		{}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {128}, {1, 28}, {12, 8},
		{127, 1}, {16384}, {128, 128}, {-1}, {-1, 0}, {1 << 40},
	}
	seen := map[string]int{}
	for i, a := range tuples {
		k := a.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("tuples %v and %v share key %q", tuples[j], a, k)
		}
		seen[k] = i
	}
	// And stability: the same tuple keys identically across pooled buffers.
	for _, a := range tuples {
		if a.Key() != a.Key() {
			t.Fatalf("key of %v is not stable", a)
		}
	}
}

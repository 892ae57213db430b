package xregex

import "testing"

// FuzzParse holds the parser, the printer and the two tree combinators to
// each other on arbitrary text: Parse never panics, and for every tree it
// accepts the print parses back to the same print, Walk visits Size(n)
// nodes, Clone prints alike, Simplify is idempotent, the identity MapKids
// shares its argument, a classical tree compiles over its own alphabet, and
// Branch lists a vstar-free tree's branches as the recursive multiply-out
// does, while both refuse a variable under +/*.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"\\\t", // an escaped tab is a symbol; printed raw it was skipped on re-parse
		"a*b?c+", "$x{a|b}($x|c)+", "[^ab]*.", "()", "[]", "\\+\\(", "a\\ b",
		"$x{$y{a*}b}$y", "$x1{a*$x2{(a|b)*}b*a*}$x2*(a|b)*$x1", "($x)a", "[\\]^\\\\]",
	}
	for seed := int64(0); seed < 8; seed++ {
		seeds = append(seeds, String(randVarXregex(seed, 2)))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		out := String(n)
		n2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) prints as %q, which does not parse: %v", src, out, err)
		}
		if got := String(n2); got != out {
			t.Fatalf("Parse(%q) prints as %q, which re-parses to %q", src, out, got)
		}
		visited := 0
		Walk(n, func(Node) bool {
			visited++
			return false
		})
		if visited != Size(n) {
			t.Fatalf("%q: Walk visited %d nodes, Size is %d", src, visited, Size(n))
		}
		if got := String(Clone(n)); got != out {
			t.Fatalf("%q: Clone prints as %q, want %q", src, got, out)
		}
		if same, err := MapKids(n, func(k Node) (Node, error) { return k, nil }); err != nil || same != n {
			t.Fatalf("%q: identity MapKids returned %v, %v", src, same, err)
		}
		s := Simplify(n)
		if once, twice := String(s), String(Simplify(s)); once != twice {
			t.Fatalf("%q: Simplify is not idempotent: %q then %q", src, once, twice)
		}
		if branches(n) <= 256 { // a bound on the reference's work, a variable under +/* counted as one
			want, refErr := multiplyOut(n)
			c, err := Branches(n)
			if (err == nil) != (refErr == nil) || err == nil && c != len(want) {
				t.Fatalf("%q: Branches = %d, %v; the reference lists %d, %v", src, c, err, len(want), refErr)
			}
			for i := range max(c, 1) {
				b, err := Branch(n, i)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%q: branch %d fails with %v, the reference with %v", src, i, err, refErr)
				}
				if err == nil && String(b) != String(want[i]) {
					t.Fatalf("%q: branch %d is %s, the reference's %s", src, i, String(b), String(want[i]))
				}
			}
		}
		if IsClassical(n) {
			if _, err := Compile(n, AlphabetOf(n)); err != nil {
				t.Fatalf("%q: classical expression does not compile over its alphabet: %v", src, err)
			}
		}
	})
}

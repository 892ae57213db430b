package xregex

import "testing"

// FuzzParse holds the parser, the printer and the two tree combinators to
// each other on arbitrary text: Parse never panics, and for every tree it
// accepts the print parses back to the same print, Walk visits Size(n)
// nodes, Clone prints alike, Simplify is idempotent, the identity MapKids
// shares its argument, and a classical tree compiles over its own alphabet.
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
		if IsClassical(n) {
			if _, err := Compile(n, AlphabetOf(n)); err != nil {
				t.Fatalf("%q: classical expression does not compile over its alphabet: %v", src, err)
			}
		}
	})
}

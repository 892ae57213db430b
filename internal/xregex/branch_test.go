package xregex

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// multiplyOut is Step 1 of the normal-form construction (Lemma 4) as the
// recursion that multiplies every alternation bearing a variable out whole:
// the reference Branches and Branch are held to, in order and by print.
func multiplyOut(n Node) ([]Node, error) {
	if !HasVars(n) {
		return []Node{n}, nil
	}
	switch t := n.(type) {
	case *Ref:
		return []Node{n}, nil
	case *Def:
		bodies, err := multiplyOut(t.Body)
		out := make([]Node, len(bodies))
		for i, b := range bodies {
			out[i] = &Def{Var: t.Var, Body: b}
		}
		return out, err
	case *Cat:
		acc := []Node{&Eps{}}
		for _, k := range t.Kids {
			parts, err := multiplyOut(k)
			if err != nil {
				return nil, err
			}
			var next []Node
			for _, a := range acc {
				for _, p := range parts {
					next = append(next, Simplify(&Cat{Kids: []Node{a, p}}))
				}
			}
			acc = next
		}
		return acc, nil
	case *Alt:
		var out []Node
		for _, k := range t.Kids {
			parts, err := multiplyOut(k)
			if err != nil {
				return nil, err
			}
			out = append(out, parts...)
		}
		return out, nil
	case *Opt:
		parts, err := multiplyOut(t.Kid)
		return append(parts, &Eps{}), err
	}
	return nil, fmt.Errorf("xregex: variable under +/*: %s", String(n))
}

// checkBranches holds Branches and Branch on n to the reference: the same
// count, branch i printed as the reference's i-th, a variable-free node its
// own branch, and nothing past the last.
func checkBranches(t *testing.T, n Node) {
	t.Helper()
	want, err := multiplyOut(n)
	if err != nil {
		t.Fatalf("%s: the reference fails: %v", String(n), err)
	}
	c, err := Branches(n)
	if err != nil || c != len(want) {
		t.Fatalf("%s: Branches = %d, %v; the reference lists %d", String(n), c, err, len(want))
	}
	for i, w := range want {
		b, err := Branch(n, i)
		if err != nil {
			t.Fatalf("%s: branch %d: %v", String(n), i, err)
		}
		if String(b) != String(w) {
			t.Fatalf("%s: branch %d is %s, the reference's %s", String(n), i, String(b), String(w))
		}
		if !HasVars(n) && b != n {
			t.Fatalf("%s: a variable-free node is not its own branch", String(n))
		}
	}
	for _, i := range []int{-1, c} {
		if _, err := Branch(n, i); err == nil {
			t.Fatalf("%s: branch %d of %d decoded", String(n), i, c)
		}
	}
}

func TestBranchMatchesMultiplyOut(t *testing.T) {
	var wide strings.Builder
	for i := 0; i < 11; i++ {
		fmt.Fprintf(&wide, "($a%d{a}|$b%d{b})", i, i)
	}
	for _, src := range []string{
		"$x{a*$y{b*}a$z}|($x{b*}($z|$y{c*}))", // γ1 of the §5.1 walkthrough
		"(a*|$x)$z{$y(a|b)}",
		"($x{a|$y{b|c}}|d)?e($x|$y)?",   // nested alternations under ?
		"$x{($y{a}|b)?($z{c}|d|$y)}$x?", // and inside definitions
		"a(b|c)*", "()", "$x", "a|$x|b",
		wide.String(),
	} {
		checkBranches(t, MustParse(src))
	}
	for seed := int64(0); seed < 200; seed++ {
		checkBranches(t, randVarXregex(seed, 1+int(seed%3)))
	}
	for _, src := range []string{"($x a)+$x{b}", "$x{a}($x|b)*|c", "(a|$x{b})($x)+"} {
		n := MustParse(src)
		if _, err := multiplyOut(n); err == nil {
			t.Fatalf("%s: the reference accepts a variable under +/*", src)
		}
		if _, err := Branches(n); err == nil {
			t.Fatalf("%s: Branches accepts a variable under +/*", src)
		}
		if _, err := Branch(n, 0); err == nil {
			t.Fatalf("%s: Branch accepts a variable under +/*", src)
		}
	}
}

// Counts past math.MaxInt saturate at it instead of wrapping, through a
// concatenation, an alternation and an option alike, and the first and last
// index of a saturated count both decode.
func TestBranchesSaturate(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&sb, "($x%d{a}|b)", i)
	}
	wide := sb.String()
	for _, src := range []string{wide, wide + "|" + wide, "(" + wide + ")?", "c(" + wide + ")d"} {
		n := MustParse(src)
		if c, err := Branches(n); err != nil || c != math.MaxInt {
			t.Fatalf("%.40s…: Branches = %d, %v; want math.MaxInt", src, c, err)
		}
		for _, i := range []int{0, math.MaxInt - 1} {
			if b, err := Branch(n, i); err != nil || !IsVariableSimple(b) {
				t.Fatalf("%.40s…: branch %d is not variable-simple: %v", src, i, err)
			}
		}
	}
}

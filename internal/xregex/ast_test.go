package xregex

import (
	"errors"
	"strings"
	"testing"
)

// kidsOf lists the direct children of n by way of MapKids.
func kidsOf(n Node) []Node {
	var kids []Node
	mapKids(n, func(k Node) Node {
		kids = append(kids, k)
		return k
	})
	return kids
}

// TestMapKidsShares pins MapKids' promise: a transformation that changes
// nothing returns its argument, and one that changes a node rebuilds exactly
// the spine above it.
func TestMapKidsShares(t *testing.T) {
	n := MustParse("(a|b+)$x{c*d}(e$x|f?)")
	classical := MustParse("(a|b+)(c*d)?")
	unchanged := []struct {
		name string
		got  Node
		want Node
	}{
		{"ReplaceRefs absent", ReplaceRefs(n, "absent", &Sym{R: 'r'}), n},
		{"ReplaceDefs absent", ReplaceDefs(n, "absent", func(Node) Node { return &Eps{} }), n},
		{"RenameVar absent", RenameVar(n, "absent", "y"), n},
		{"SubstituteAllVars variable-free", SubstituteAllVars(classical, map[string]string{"x": "a"}), classical},
		{"Relax variable-free", Relax(classical, nil), classical},
		{"mapKids identity", mapKids(n, func(k Node) Node { return k }), n},
	}
	for _, c := range unchanged {
		if c.got != c.want {
			t.Errorf("%s: rebuilt an unchanged tree", c.name)
		}
	}
	if cut, err := CutFailedDefs(n, map[string]string{"x": "d"}, []rune("abcdef")); err != nil || cut != n {
		t.Errorf("CutFailedDefs with every definition alive: got %v, %v; want the argument", cut, err)
	}

	// n = Cat{ Alt{a, b+}, $x{…}, Alt{ Cat{e, $x}, f? } }: replacing the one
	// reference rebuilds the root, the last Alt and its first Cat, and
	// shares everything else.
	got := ReplaceRefs(n, "x", &Sym{R: 'r'})
	if want := "(a|b+)$x{c*d}(er|f?)"; String(got) != want {
		t.Fatalf("ReplaceRefs = %s, want %s", String(got), want)
	}
	old, nu := kidsOf(n), kidsOf(got)
	if got == n || nu[0] != old[0] || nu[1] != old[1] || nu[2] == old[2] {
		t.Errorf("root: want a new node over the first two children shared and the third rebuilt")
	}
	oldAlt, nuAlt := kidsOf(old[2]), kidsOf(nu[2])
	if nuAlt[0] == oldAlt[0] || nuAlt[1] != oldAlt[1] {
		t.Errorf("alternation: want the branch with the reference rebuilt and the other shared")
	}
	if oldCat, nuCat := kidsOf(oldAlt[0]), kidsOf(nuAlt[0]); nuCat[0] != oldCat[0] {
		t.Errorf("concatenation: the sibling of the replaced reference was copied")
	}

	boom := errors.New("boom")
	if out, err := MapKids(n, func(Node) (Node, error) { return nil, boom }); err != boom || out != nil {
		t.Errorf("MapKids under a failing f = %v, %v; want nil, boom", out, err)
	}
}

// TestWalkOrder pins Walk's promise: pre-order, children left to right —
// the order DefBodies and the printer list nodes in — and no call of visit
// after the one that returned true.
func TestWalkOrder(t *testing.T) {
	n := MustParse("$x{a$y{b}}(c|$z{d$y})(e+)*$x?")
	var syms, defs []string
	Walk(n, func(m Node) bool {
		switch t := m.(type) {
		case *Sym:
			syms = append(syms, string(t.R))
		case *Def:
			defs = append(defs, t.Var)
		}
		return false
	})
	if got := strings.Join(syms, ""); got != "abcde" {
		t.Errorf("symbols in walk order %q, printer order %q", got, "abcde")
	}
	if got := strings.Join(defs, ""); got != "xyz" {
		t.Errorf("definitions in walk order %q, want xyz", got)
	}
	var bodies []string
	for _, x := range defs {
		for _, b := range DefBodies(x, n) {
			bodies = append(bodies, String(b))
		}
	}
	if got, want := strings.Join(bodies, ""), "a$y{b}"+"b"+"d$y"; got != want {
		t.Errorf("DefBodies in walk order %q, want %q", got, want)
	}

	for k := 1; k <= Size(n); k++ {
		calls := 0
		stopped := Walk(n, func(Node) bool {
			calls++
			return calls == k
		})
		if !stopped || calls != k {
			t.Errorf("visit true at node %d: Walk = %v after %d calls", k, stopped, calls)
		}
	}
	if Walk(n, func(Node) bool { return false }) {
		t.Errorf("Walk reported a stop no visit asked for")
	}
}

// TestRelax holds Relax to what its predecessors (relaxVars here,
// relaxAllVars and relaxUnassigned in package cxrpq) were used for.
func TestRelax(t *testing.T) {
	cases := []struct {
		name, src string
		assign    map[string]string
		want      string
	}{
		{"everything relaxed", "a$x{b+}(c|$x)*$y", nil, "a.*(c|.*)*.*"},
		{"assigned prefix substituted", "a$x{b+}(c|$x)*$y", map[string]string{"x": "bb"}, "a(bb)(c|bb)*.*"},
		{"empty image is ε", "a$x$y", map[string]string{"x": ""}, "a().*"},
		{"nested definitions relaxed whole", "$z{a$x{b}$y{c$x}}d", map[string]string{"x": "b"}, ".*d"},
		{"nested definitions not cut", "$z{a$x{b}}d", map[string]string{"z": "q", "x": "b"}, "qd"},
	}
	for _, c := range cases {
		got := Relax(MustParse(c.src), c.assign)
		if String(got) != c.want {
			t.Errorf("%s: Relax(%s, %v) = %s, want %s", c.name, c.src, c.assign, String(got), c.want)
		}
		if !IsClassical(got) {
			t.Errorf("%s: %s is not classical", c.name, String(got))
		}
	}
}

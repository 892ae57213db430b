package planner

import (
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/xregex"
)

func cacheFor(t *testing.T, src, sigma string) *automata.SubsetCache {
	t.Helper()
	m, err := xregex.Compile(xregex.MustParse(src), []rune(sigma))
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return automata.NewSubsetCache(m)
}

func TestLangContains(t *testing.T) {
	cases := []struct {
		sub, sup  string
		contained bool
	}{
		{"a", "a|b", true},
		{"a|b", "a", false},
		{"a+", "a*", true},
		{"a*", "a+", false}, // ε ∈ a* \ a+
		{"ab", "a|b", false},
		{"ab", "a*b*", true},
		{"a", "a", true},
		{"(a|b)*", "(a|b)*", true},
		{"aa*", "a+", true},
		{"abc", "a(b|c)*", true},
		{"abca", "a(b|c)*", false},
		{"ac|bc", "(a|b)c", true},
	}
	for _, c := range cases {
		sub := cacheFor(t, c.sub, "abc")
		sup := cacheFor(t, c.sup, "abc")
		got, decided := LangContains(sub, sup, DefaultContainLimit)
		if !decided {
			t.Errorf("LangContains(%q, %q) undecided", c.sub, c.sup)
			continue
		}
		if got != c.contained {
			t.Errorf("LangContains(%q, %q) = %v, want %v", c.sub, c.sup, got, c.contained)
		}
	}
}

func TestLangContainsSameCache(t *testing.T) {
	c := cacheFor(t, "a(b|c)*", "abc")
	got, decided := LangContains(c, c, DefaultContainLimit)
	if !got || !decided {
		t.Fatalf("LangContains(c, c) = %v, %v; want identical cache fast path", got, decided)
	}
}

func TestLangContainsLimitBail(t *testing.T) {
	sub := cacheFor(t, "(a|b)*a(a|b)(a|b)(a|b)", "ab")
	sup := cacheFor(t, "(a|b)*b(a|b)(a|b)(a|b)", "ab")
	if _, decided := LangContains(sub, sup, 2); decided {
		t.Fatal("limit 2 should bail undecided")
	}
	// And bailing must be reported as "keep the atom" by Minimize.
	atoms := []MinAtom{
		{From: "x", To: "y", Cache: sub},
		{From: "x", To: "y", Cache: sup},
	}
	drop := Tuning{}.Minimize(atoms, 2)
	for i, d := range drop {
		if d {
			t.Fatalf("atom %d dropped on an undecided containment", i)
		}
	}
}

func TestMinimize(t *testing.T) {
	a := cacheFor(t, "a", "ab")
	ab := cacheFor(t, "a|b", "ab")
	aStar := cacheFor(t, "a*", "ab")

	t.Run("widened atom dropped", func(t *testing.T) {
		drop := Tuning{}.Minimize([]MinAtom{
			{From: "x", To: "y", Cache: a},
			{From: "x", To: "y", Cache: ab},
		}, 0)
		if drop[0] || !drop[1] {
			t.Fatalf("drop = %v, want [false true]", drop)
		}
	})
	t.Run("equal languages keep lower index", func(t *testing.T) {
		drop := Tuning{}.Minimize([]MinAtom{
			{From: "x", To: "y", Cache: a},
			{From: "x", To: "y", Cache: cacheFor(t, "a", "ab")},
		}, 0)
		if drop[0] || !drop[1] {
			t.Fatalf("drop = %v, want [false true]", drop)
		}
	})
	t.Run("chain of containments", func(t *testing.T) {
		// a ⊆ a|b and a ⊆ a*: both wider atoms drop.
		drop := Tuning{}.Minimize([]MinAtom{
			{From: "x", To: "y", Cache: ab},
			{From: "x", To: "y", Cache: a},
			{From: "x", To: "y", Cache: aStar},
		}, 0)
		if drop[1] || !drop[0] || !drop[2] {
			t.Fatalf("drop = %v, want [true false true]", drop)
		}
	})
	t.Run("different endpoints never interact", func(t *testing.T) {
		drop := Tuning{}.Minimize([]MinAtom{
			{From: "x", To: "y", Cache: a},
			{From: "x", To: "z", Cache: ab},
		}, 0)
		if drop[0] || drop[1] {
			t.Fatalf("drop = %v, want no drops across endpoint groups", drop)
		}
	})
	t.Run("nil cache ineligible", func(t *testing.T) {
		drop := Tuning{}.Minimize([]MinAtom{
			{From: "x", To: "y", Cache: a},
			{From: "x", To: "y", Cache: nil},
		}, 0)
		if drop[0] || drop[1] {
			t.Fatalf("drop = %v, want no drops with an ineligible atom", drop)
		}
	})
	t.Run("disabled switch", func(t *testing.T) {
		drop := Tuning{NoMinimize: true}.Minimize([]MinAtom{
			{From: "x", To: "y", Cache: a},
			{From: "x", To: "y", Cache: ab},
		}, 0)
		if drop[0] || drop[1] {
			t.Fatalf("drop = %v, want no drops with the pass off", drop)
		}
	})
}

package xregex

import (
	"fmt"
	"slices"
	"sort"

	"cxrpq/internal/automata"
)

// Compile translates a classical regular expression (no variables) into an
// NFA with rune labels using the Thompson construction. sigma is the
// concrete alphabet Σ used to resolve negated character classes and the "."
// wildcard; symbols occurring positively in n are matched even if absent
// from sigma.
func Compile(n Node, sigma []rune) (*automata.NFA, error) {
	if HasVars(n) {
		return nil, fmt.Errorf("xregex: cannot compile expression with variables to an NFA: %s", String(n))
	}
	m := automata.New(2)
	start, final := 0, 1
	m.SetStart(start)
	m.SetFinal(final, true)
	if err := build(m, n, start, final, sigma); err != nil {
		return nil, err
	}
	return m, nil
}

// MustCompile is Compile but panics on error.
func MustCompile(n Node, sigma []rune) *automata.NFA {
	m, err := Compile(n, sigma)
	if err != nil {
		panic(err)
	}
	return m
}

// ClassSymbols resolves a character class against Σ: the sorted set of
// symbols the class matches.
func ClassSymbols(c *Class, sigma []rune) []rune {
	if !c.Neg {
		return append([]rune(nil), c.Set...)
	}
	excl := map[rune]bool{}
	for _, r := range c.Set {
		excl[r] = true
	}
	var out []rune
	for _, r := range sigma {
		if !excl[r] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func build(m *automata.NFA, n Node, from, to int, sigma []rune) error {
	switch t := n.(type) {
	case *Empty:
		// no transitions
		return nil
	case *Eps:
		m.AddTr(from, automata.Epsilon, to)
		return nil
	case *Sym:
		m.AddTr(from, int32(t.R), to)
		return nil
	case *Class:
		for _, r := range ClassSymbols(t, sigma) {
			m.AddTr(from, int32(r), to)
		}
		return nil
	case *Cat:
		cur := from
		for i, k := range t.Kids {
			next := to
			if i < len(t.Kids)-1 {
				next = m.AddState()
			}
			if err := build(m, k, cur, next, sigma); err != nil {
				return err
			}
			cur = next
		}
		if len(t.Kids) == 0 {
			m.AddTr(from, automata.Epsilon, to)
		}
		return nil
	case *Alt:
		if len(t.Kids) == 0 {
			return nil // ∅
		}
		for _, k := range t.Kids {
			if err := build(m, k, from, to, sigma); err != nil {
				return err
			}
		}
		return nil
	case *Plus:
		// from -ε-> p -kid-> q -ε-> to, q -ε-> p
		p := m.AddState()
		q := m.AddState()
		m.AddTr(from, automata.Epsilon, p)
		m.AddTr(q, automata.Epsilon, to)
		m.AddTr(q, automata.Epsilon, p)
		return build(m, t.Kid, p, q, sigma)
	case *Star:
		p := m.AddState()
		q := m.AddState()
		m.AddTr(from, automata.Epsilon, p)
		m.AddTr(q, automata.Epsilon, to)
		m.AddTr(q, automata.Epsilon, p)
		m.AddTr(from, automata.Epsilon, to)
		return build(m, t.Kid, p, q, sigma)
	case *Opt:
		m.AddTr(from, automata.Epsilon, to)
		return build(m, t.Kid, from, to, sigma)
	case *Ref, *Def:
		return fmt.Errorf("xregex: variable in classical compilation")
	}
	panic("xregex: unknown node type")
}

// Matches reports whether the classical expression n matches w, resolving
// classes against sigma. It compiles n on every call: it serves the
// statements of the paper, which have no database to keep automata in. The
// bounded engine tests its words against the atoms of its database's store.
func Matches(n Node, w string, sigma []rune) (bool, error) {
	m, err := Compile(n, sigma)
	if err != nil {
		return false, err
	}
	return m.AcceptsString(w), nil
}

// Matcher reports whether the classical expression n matches w, over an
// alphabet the matcher fixes.
type Matcher func(n Node, w string) (bool, error)

// MergeAlphabets unions rune alphabets, sorted and deduplicated.
func MergeAlphabets(as ...[]rune) []rune {
	out := slices.Concat(as...)
	slices.Sort(out)
	return slices.Compact(out)
}

// AlphabetOf returns the sorted terminal symbols of the given expressions.
func AlphabetOf(nodes ...Node) []rune {
	set := map[rune]bool{}
	for _, n := range nodes {
		for r := range Symbols(n) {
			set[r] = true
		}
	}
	out := make([]rune, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

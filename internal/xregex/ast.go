// Package xregex implements regular expressions with backreferences (xregex,
// Definition 3 of Schmid, PODS 2020) over a finite terminal alphabet Σ and a
// set of string variables, together with the classical regular expressions
// REΣ as the variable-free subset.
//
// A syntax tree is an immutable Node value. Two functions know which node
// kinds have children: Walk (pre-order visit with early stop) and MapKids
// (rebuild over the mapped children, sharing what did not change). Whatever
// only descends or only rebuilds is written on them and shows just the case
// the paper talks about; a function switches over every kind only where each
// kind means something different to it (Simplify, the Thompson
// constructions, the printer, seqCheck, ForceVar, ExpandVariableSimple).
//
// On top of the AST the package provides: a parser and printer, the
// ref-word semantics of §2.1 (Definitions 1 and 2), the syntactic fragment
// classifiers of §5 (vstar-free, valt-free, variable-simple, simple, normal
// form, basic definitions), Thompson compilation of classical expressions to
// NFAs, conversion of NFAs back to classical expressions by state
// elimination (needed for Lemma 12), word matching with witness variable
// mappings, and the syntax-tree transformations used by the normal-form
// construction (Lemmas 4–6) and the bounded-image instantiation (Lemma 10)
// with its Σ*-relaxation (Relax).
package xregex

import "sort"

// Node is an xregex syntax tree. All implementations are pointer types;
// trees are treated as immutable values — transformations build new trees.
type Node interface{ node() }

// Empty is ∅, the expression with L(∅) = ∅.
type Empty struct{}

// Eps is ε, the empty word.
type Eps struct{}

// Sym is a single terminal symbol a ∈ Σ.
type Sym struct{ R rune }

// Class is a character class: [abc] (Neg=false) matches any listed symbol;
// [^abc] (Neg=true) matches any symbol of Σ not listed. The wildcard "."
// is Class{Neg: true} with an empty set. Classes are syntactic sugar for
// alternations of symbols, resolved against a concrete Σ at compile time.
type Class struct {
	Neg bool
	Set []rune // sorted, unique
}

// Ref is a reference of string variable Var.
type Ref struct{ Var string }

// Def is a definition Var{Body} of string variable Var.
type Def struct {
	Var  string
	Body Node
}

// Cat is concatenation of the Kids in order.
type Cat struct{ Kids []Node }

// Alt is alternation (∨) of the Kids.
type Alt struct{ Kids []Node }

// Plus is (Kid)+, one or more repetitions.
type Plus struct{ Kid Node }

// Star is (Kid)*, shorthand for (Kid)+ ∨ ε as in the paper.
type Star struct{ Kid Node }

// Opt is (Kid)?, shorthand for Kid ∨ ε.
type Opt struct{ Kid Node }

func (*Empty) node() {}
func (*Eps) node()   {}
func (*Sym) node()   {}
func (*Class) node() {}
func (*Ref) node()   {}
func (*Def) node()   {}
func (*Cat) node()   {}
func (*Alt) node()   {}
func (*Plus) node()  {}
func (*Star) node()  {}
func (*Opt) node()   {}

// NewClass builds a Class with a sorted, deduplicated set.
func NewClass(neg bool, set []rune) *Class {
	s := append([]rune(nil), set...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, r := range s {
		if i == 0 || r != s[i-1] {
			out = append(out, r)
		}
	}
	return &Class{Neg: neg, Set: out}
}

// Word returns a Node matching exactly the word w (ε for the empty word).
func Word(w string) Node {
	rs := []rune(w)
	if len(rs) == 0 {
		return &Eps{}
	}
	if len(rs) == 1 {
		return &Sym{R: rs[0]}
	}
	kids := make([]Node, len(rs))
	for i, r := range rs {
		kids[i] = &Sym{R: r}
	}
	return &Cat{Kids: kids}
}

// AnyWord returns a Node for Σ* relative to a symbolic wildcard (".*"), i.e.
// Star of the negated-empty class. Σ is resolved at compile time.
func AnyWord() Node { return &Star{Kid: &Class{Neg: true}} }

// Walk visits n and its descendants in pre-order — a node before its
// children, children left to right, the order the printer writes them — and
// stops at the first node for which visit returns true, reporting whether
// there was one. Walk and MapKids are the only functions that know which
// node kinds have children.
func Walk(n Node, visit func(Node) bool) bool {
	if visit(n) {
		return true
	}
	switch t := n.(type) {
	case *Def:
		return Walk(t.Body, visit)
	case *Cat:
		return walkAll(t.Kids, visit)
	case *Alt:
		return walkAll(t.Kids, visit)
	case *Plus:
		return Walk(t.Kid, visit)
	case *Star:
		return Walk(t.Kid, visit)
	case *Opt:
		return Walk(t.Kid, visit)
	}
	return false
}

func walkAll(nodes []Node, visit func(Node) bool) bool {
	for _, n := range nodes {
		if Walk(n, visit) {
			return true
		}
	}
	return false
}

// MapKids rebuilds n over f of its direct children. It returns n itself when
// f returned every child unchanged, so a transformation copies only the
// spine above the nodes it replaces; trees are immutable, and sharing the
// rest is safe.
func MapKids(n Node, f func(Node) (Node, error)) (Node, error) {
	switch t := n.(type) {
	case *Def:
		body, err := f(t.Body)
		if err != nil {
			return nil, err
		}
		if body != t.Body {
			return &Def{Var: t.Var, Body: body}, nil
		}
	case *Cat:
		kids, err := mapAll(t.Kids, f)
		if err != nil {
			return nil, err
		}
		if kids != nil {
			return &Cat{Kids: kids}, nil
		}
	case *Alt:
		kids, err := mapAll(t.Kids, f)
		if err != nil {
			return nil, err
		}
		if kids != nil {
			return &Alt{Kids: kids}, nil
		}
	case *Plus:
		kid, err := f(t.Kid)
		if err != nil {
			return nil, err
		}
		if kid != t.Kid {
			return &Plus{Kid: kid}, nil
		}
	case *Star:
		kid, err := f(t.Kid)
		if err != nil {
			return nil, err
		}
		if kid != t.Kid {
			return &Star{Kid: kid}, nil
		}
	case *Opt:
		kid, err := f(t.Kid)
		if err != nil {
			return nil, err
		}
		if kid != t.Kid {
			return &Opt{Kid: kid}, nil
		}
	}
	return n, nil
}

// mapAll returns f over nodes, or nil when f changed none of them.
func mapAll(nodes []Node, f func(Node) (Node, error)) ([]Node, error) {
	var out []Node
	for i, k := range nodes {
		m, err := f(k)
		if err != nil {
			return nil, err
		}
		if m != k && out == nil {
			out = append(make([]Node, 0, len(nodes)), nodes[:i]...)
		}
		if out != nil {
			out = append(out, m)
		}
	}
	return out, nil
}

// mapKids is MapKids for an f that cannot fail.
func mapKids(n Node, f func(Node) Node) Node {
	out, _ := MapKids(n, func(k Node) (Node, error) { return f(k), nil })
	return out
}

// Vars returns the set of string variables occurring in n (references and
// definitions), i.e. var(n) from Definition 3. It is small enough to inline,
// which keeps the set on the stack of a caller that only looks into it.
func Vars(n Node) map[string]bool {
	out := map[string]bool{}
	addVars(out, n)
	return out
}

// addVars adds the variables occurring in nodes to out.
func addVars(out map[string]bool, nodes ...Node) {
	walkAll(nodes, func(n Node) bool {
		switch t := n.(type) {
		case *Ref:
			out[t.Var] = true
		case *Def:
			out[t.Var] = true
		}
		return false
	})
}

// SortedVars returns var(n) as a sorted slice, for deterministic iteration.
func SortedVars(n Node) []string {
	m := Vars(n)
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// HasVars reports whether n contains any variable reference or definition.
func HasVars(n Node) bool { return Walk(n, isVar) }

func isVar(n Node) bool {
	switch n.(type) {
	case *Ref, *Def:
		return true
	}
	return false
}

// ContainsDef reports whether n contains a definition of variable x.
func ContainsDef(n Node, x string) bool {
	return Walk(n, func(m Node) bool {
		d, ok := m.(*Def)
		return ok && d.Var == x
	})
}

// ContainsRef reports whether n contains a reference of variable x.
func ContainsRef(n Node, x string) bool {
	return Walk(n, func(m Node) bool {
		r, ok := m.(*Ref)
		return ok && r.Var == x
	})
}

// DefinedVars returns the set of variables that have at least one definition
// in n.
func DefinedVars(n Node) map[string]bool {
	out := map[string]bool{}
	Walk(n, func(m Node) bool {
		if d, ok := m.(*Def); ok {
			out[d.Var] = true
		}
		return false
	})
	return out
}

// Size returns the number of AST nodes in n, the size measure |α| used in
// the paper's blow-up bounds.
func Size(n Node) int {
	size := 0
	Walk(n, func(Node) bool {
		size++
		return false
	})
	return size
}

// Clone returns a deep copy of n.
func Clone(n Node) Node {
	switch t := n.(type) {
	case *Empty:
		return &Empty{}
	case *Eps:
		return &Eps{}
	case *Sym:
		return &Sym{R: t.R}
	case *Class:
		return &Class{Neg: t.Neg, Set: append([]rune(nil), t.Set...)}
	case *Ref:
		return &Ref{Var: t.Var}
	}
	return mapKids(n, Clone)
}

// IsClassical reports whether n is a classical regular expression (no
// variable definitions or references), i.e. n ∈ REΣ.
func IsClassical(n Node) bool { return !HasVars(n) }

// Symbols returns the set of terminal symbols occurring in n (including
// symbols listed in classes).
func Symbols(n Node) map[rune]bool {
	out := map[rune]bool{}
	Walk(n, func(m Node) bool {
		switch t := m.(type) {
		case *Sym:
			out[t.R] = true
		case *Class:
			for _, r := range t.Set {
				out[r] = true
			}
		}
		return false
	})
	return out
}

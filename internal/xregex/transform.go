package xregex

import (
	"cmp"
	"fmt"
	"math"
)

// ReplaceRefs returns n with every reference of x replaced by a deep copy of
// repl. Definitions of x are left untouched.
func ReplaceRefs(n Node, x string, repl Node) Node {
	if r, ok := n.(*Ref); ok && r.Var == x {
		return Clone(repl)
	}
	return mapKids(n, func(k Node) Node { return ReplaceRefs(k, x, repl) })
}

// ReplaceDefs returns n with every definition of x replaced by repl(body).
func ReplaceDefs(n Node, x string, repl func(body Node) Node) Node {
	if d, ok := n.(*Def); ok && d.Var == x {
		return repl(d.Body)
	}
	return mapKids(n, func(k Node) Node { return ReplaceDefs(k, x, repl) })
}

// RenameVar renames variable old to nu in definitions and references.
func RenameVar(n Node, old, nu string) Node {
	switch t := n.(type) {
	case *Ref:
		if t.Var == old {
			return &Ref{Var: nu}
		}
	case *Def:
		if t.Var == old {
			return &Def{Var: nu, Body: RenameVar(t.Body, old, nu)}
		}
	}
	return mapKids(n, func(k Node) Node { return RenameVar(k, old, nu) })
}

// Branches counts the variable-simple branches Step 1 of the normal-form
// construction (Lemma 4) multiplies n out into, saturating at math.MaxInt:
// the sum over an alternation's alternatives (ε one more for an option) and
// the product over a concatenation's factors where a variable lies below. It
// fails if n is not vstar-free.
func Branches(n Node) (int, error) {
	if !IsVStarFree(n) {
		return 0, fmt.Errorf("xregex: variable under +/* — expression is not vstar-free: %s", String(n))
	}
	return branches(n), nil
}

func branches(n Node) int {
	if !HasVars(n) {
		return 1
	}
	count := 1
	switch t := n.(type) {
	case *Def:
		return branches(t.Body)
	case *Opt:
		return min(branches(t.Kid), math.MaxInt-1) + 1
	case *Alt:
		count = 0
		for _, k := range t.Kids {
			c := branches(k)
			count = min(count, math.MaxInt-c) + c
		}
	case *Cat:
		for _, k := range t.Kids {
			c := branches(k)
			if count > math.MaxInt/c {
				return math.MaxInt
			}
			count *= c
		}
	}
	return count
}

// Branch builds branch i of n, 0 ≤ i < Branches(n), in the order Step 1
// lists them: an alternation's alternatives in turn, an option's expression
// before ε, and a concatenation's factors as the digits of a mixed radix, its
// last factor fastest. A variable-free node is its own branch, not a copy.
func Branch(n Node, i int) (Node, error) {
	if c, err := Branches(n); err != nil || i < 0 || i >= c {
		return nil, cmp.Or(err, fmt.Errorf("xregex: %s has no branch %d", String(n), i))
	}
	return branch(n, i), nil
}

func branch(n Node, i int) Node {
	if !HasVars(n) {
		return n
	}
	switch t := n.(type) {
	case *Def:
		return &Def{Var: t.Var, Body: branch(t.Body, i)}
	case *Opt: // α? lists as α ∨ ε
		return branch(&Alt{Kids: []Node{t.Kid, &Eps{}}}, i)
	case *Alt:
		for _, k := range t.Kids {
			c := branches(k)
			if i < c {
				return branch(k, i)
			}
			i -= c
		}
	case *Cat:
		parts := make([]Node, len(t.Kids))
		for j := len(parts) - 1; j >= 0; j-- {
			c := branches(t.Kids[j])
			parts[j], i = branch(t.Kids[j], i%c), i/c
		}
		return Simplify(&Cat{Kids: parts})
	}
	return n // a reference
}

// maxMultiplyOut bounds the branches MultiplyOut builds: a component with
// more is refused, not allocated.
const maxMultiplyOut = 1 << 20

// MultiplyOut is Step 1 on one vstar-free xregex: the alternation of its
// variable-simple branches in Branch's order, or its one branch. Their union
// of ref-languages is L_ref(n), and there can be exponentially many.
func MultiplyOut(n Node) (Node, error) {
	c, err := Branches(n)
	if c > maxMultiplyOut {
		return nil, fmt.Errorf("xregex: Step 1 refuses to build %d branches, more than %d", c, maxMultiplyOut)
	}
	bs := make([]Node, c)
	for i := range bs {
		bs[i] = branch(n, i)
	}
	if c == 1 {
		return bs[0], nil
	}
	return &Alt{Kids: bs}, err
}

// FactorKind classifies one factor of a variable-simple xregex.
type FactorKind int

const (
	// FClassical is a maximal run of variable-free subexpressions, merged
	// into one classical expression.
	FClassical FactorKind = iota
	// FRef is a single variable reference.
	FRef
	// FDef is a variable definition.
	FDef
)

// Factor is one factor of the factorization α = β1 β2 … βk of a
// variable-simple xregex, where each βi is a classical regular expression, a
// variable reference, or a variable definition (§5).
type Factor struct {
	Kind FactorKind
	Expr Node   // FClassical: the expression; FDef: the definition body
	Var  string // FRef / FDef
}

// Node converts a factor back into an AST node.
func (f Factor) Node() Node {
	switch f.Kind {
	case FClassical:
		return f.Expr
	case FRef:
		return &Ref{Var: f.Var}
	default:
		return &Def{Var: f.Var, Body: f.Expr}
	}
}

// Factorize splits a variable-simple xregex into factors, merging adjacent
// classical pieces. It returns an error if n is not variable-simple.
func Factorize(n Node) ([]Factor, error) {
	if !IsVariableSimple(n) {
		return nil, fmt.Errorf("xregex: not variable-simple: %s", String(n))
	}
	var raw []Factor
	var walk func(Node) error
	walk = func(n Node) error {
		switch t := n.(type) {
		case *Cat:
			for _, k := range t.Kids {
				if err := walk(k); err != nil {
					return err
				}
			}
			return nil
		case *Ref:
			raw = append(raw, Factor{Kind: FRef, Var: t.Var})
			return nil
		case *Def:
			raw = append(raw, Factor{Kind: FDef, Var: t.Var, Expr: t.Body})
			return nil
		default:
			if HasVars(n) {
				// variable-simple guarantees Alt/Plus/Star/Opt subtrees with
				// variables cannot occur here
				return fmt.Errorf("xregex: unexpected variable under %T", n)
			}
			raw = append(raw, Factor{Kind: FClassical, Expr: n})
			return nil
		}
	}
	if err := walk(n); err != nil {
		return nil, err
	}
	// merge adjacent classical factors
	var out []Factor
	for _, f := range raw {
		if f.Kind == FClassical && len(out) > 0 && out[len(out)-1].Kind == FClassical {
			prev := out[len(out)-1]
			out[len(out)-1] = Factor{
				Kind: FClassical,
				Expr: Simplify(&Cat{Kids: []Node{prev.Expr, f.Expr}}),
			}
			continue
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		out = append(out, Factor{Kind: FClassical, Expr: &Eps{}})
	}
	return out, nil
}

package xregex

import "fmt"

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

// ExpandVariableSimple implements Step 1 of the normal-form construction
// (Lemma 4): it "multiplies out" every alternation that contains a variable
// definition or reference, turning a vstar-free xregex into a list of
// variable-simple xregex whose union of ref-languages equals L_ref(n). The
// result can be exponentially larger than n. It returns an error if n is not
// vstar-free.
func ExpandVariableSimple(n Node) ([]Node, error) {
	if !HasVars(n) {
		return []Node{n}, nil
	}
	switch t := n.(type) {
	case *Ref:
		return []Node{n}, nil
	case *Def:
		bodies, err := ExpandVariableSimple(t.Body)
		if err != nil {
			return nil, err
		}
		out := make([]Node, len(bodies))
		for i, b := range bodies {
			out[i] = &Def{Var: t.Var, Body: b}
		}
		return out, nil
	case *Cat:
		acc := []Node{&Eps{}}
		for _, k := range t.Kids {
			parts, err := ExpandVariableSimple(k)
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
			parts, err := ExpandVariableSimple(k)
			if err != nil {
				return nil, err
			}
			out = append(out, parts...)
		}
		return out, nil
	case *Opt:
		parts, err := ExpandVariableSimple(t.Kid)
		if err != nil {
			return nil, err
		}
		return append(parts, &Eps{}), nil
	default: // *Plus, *Star: every other kind with a variable below it is handled above
		return nil, fmt.Errorf("xregex: variable under +/* — expression is not vstar-free: %s", String(n))
	}
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

// FactorsNode rebuilds a concatenation node from factors.
func FactorsNode(fs []Factor) Node {
	kids := make([]Node, len(fs))
	for i, f := range fs {
		kids[i] = f.Node()
	}
	return Simplify(&Cat{Kids: kids})
}

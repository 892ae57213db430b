package xregex

import (
	"fmt"
	"sort"
)

// IsSequential reports whether every ref-word generated by n contains each
// definition parenthesis ⟨x at most once (§3). Syntactically this holds iff
// no definition occurs under + or * and no two definitions of the same
// variable can occur in the same concatenation (they may share an
// alternation, whose branches are mutually exclusive).
func IsSequential(n Node) bool {
	_, ok := seqCheck(n)
	return ok
}

// seqCheck returns the set of variables that *may* obtain a definition in a
// single derivation of n, and whether n is sequential.
func seqCheck(n Node) (map[string]bool, bool) {
	switch t := n.(type) {
	case *Empty, *Eps, *Sym, *Class, *Ref:
		return nil, true
	case *Def:
		inner, ok := seqCheck(t.Body)
		if !ok || inner[t.Var] {
			return nil, false
		}
		out := map[string]bool{t.Var: true}
		for v := range inner {
			out[v] = true
		}
		return out, true
	case *Cat:
		out := map[string]bool{}
		for _, k := range t.Kids {
			m, ok := seqCheck(k)
			if !ok {
				return nil, false
			}
			for v := range m {
				if out[v] {
					return nil, false // two definitions of v in one concatenation
				}
				out[v] = true
			}
		}
		return out, true
	case *Alt:
		out := map[string]bool{}
		for _, k := range t.Kids {
			m, ok := seqCheck(k)
			if !ok {
				return nil, false
			}
			for v := range m {
				out[v] = true
			}
		}
		return out, true
	case *Plus:
		m, ok := seqCheck(t.Kid)
		if !ok || len(m) > 0 {
			return nil, false // definition under + can repeat
		}
		return nil, true
	case *Star:
		m, ok := seqCheck(t.Kid)
		if !ok || len(m) > 0 {
			return nil, false
		}
		return nil, true
	case *Opt:
		return seqCheck(t.Kid)
	}
	panic("xregex: unknown node type")
}

// VarRelation returns the edges of the relation ≺ over variables: x ≺ y iff
// some definition of y contains a reference or a definition of x (§2.1 for
// ref-words, §3 for xregex). The nodes are interpreted as the concatenation
// α1·α2·…·αm, which is how conjunctive xregex are validated (Definition 4).
func VarRelation(nodes ...Node) map[string]map[string]bool {
	rel := map[string]map[string]bool{}
	walkAll(nodes, func(n Node) bool {
		if d, ok := n.(*Def); ok {
			for x := range Vars(d.Body) {
				if rel[x] == nil {
					rel[x] = map[string]bool{}
				}
				rel[x][d.Var] = true // x ≺ d.Var
			}
		}
		return false
	})
	return rel
}

// IsAcyclic reports whether the transitive closure of ≺ over the given
// xregex (read as their concatenation) is acyclic, as required for
// conjunctive xregex (Definition 4).
func IsAcyclic(nodes ...Node) bool {
	_, err := TopoVars(nodes...)
	return err == nil
}

// TopoVars returns all variables of the given xregex in a topological order
// of ≺ (variables that depend on nothing first). It returns an error if ≺
// has a cycle.
func TopoVars(nodes ...Node) ([]string, error) {
	rel := VarRelation(nodes...)
	all := map[string]bool{}
	addVars(all, nodes...)
	names := make([]string, 0, len(all))
	for v := range all {
		names = append(names, v)
	}
	sort.Strings(names)

	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var order []string
	var visit func(v string) error
	visit = func(v string) error {
		switch state[v] {
		case 1:
			return fmt.Errorf("xregex: variable dependency cycle through $%s", v)
		case 2:
			return nil
		}
		state[v] = 1
		// edges into v: x ≺ v means x must come first.
		var preds []string
		for x, ys := range rel {
			if ys[v] {
				preds = append(preds, x)
			}
		}
		sort.Strings(preds)
		for _, x := range preds {
			if err := visit(x); err != nil {
				return err
			}
		}
		state[v] = 2
		order = append(order, v)
		return nil
	}
	for _, v := range names {
		if err := visit(v); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// IsVStarFree reports whether n is variable-star free (§5): no variable
// reference or definition occurs under + or *.
func IsVStarFree(n Node) bool {
	return !Walk(n, func(m Node) bool {
		switch t := m.(type) {
		case *Plus:
			return HasVars(t.Kid)
		case *Star:
			return HasVars(t.Kid)
		}
		return false
	})
}

// IsValtFree reports whether n is variable-alternation free (§5): for every
// subexpression (β1 ∨ β2), neither branch contains a variable definition or
// reference. α? counts as α ∨ ε.
func IsValtFree(n Node) bool {
	return !Walk(n, func(m Node) bool {
		switch t := m.(type) {
		case *Alt:
			return walkAll(t.Kids, isVar)
		case *Opt:
			return HasVars(t.Kid)
		}
		return false
	})
}

// IsVariableSimple reports whether n is variable-simple: vstar-free and
// valt-free (§5).
func IsVariableSimple(n Node) bool { return IsVStarFree(n) && IsValtFree(n) }

// IsBasicDef reports whether a definition body is basic (§5): a classical
// regular expression or a single variable reference.
func IsBasicDef(body Node) bool {
	if IsClassical(body) {
		return true
	}
	_, isRef := body.(*Ref)
	return isRef
}

// IsSimple reports whether n is simple (§5): variable-simple and every
// variable definition x{γ} is basic.
func IsSimple(n Node) bool { return IsVariableSimple(n) && allDefsBasic(n) }

func allDefsBasic(n Node) bool {
	return !Walk(n, func(m Node) bool {
		d, ok := m.(*Def)
		return ok && !IsBasicDef(d.Body)
	})
}

// IsNormalForm reports whether n is in normal form (§5): an alternation
// α1 ∨ … ∨ αm where every αi is simple (m = 1 allowed).
func IsNormalForm(n Node) bool {
	if alt, ok := n.(*Alt); ok {
		for _, k := range alt.Kids {
			if !IsSimple(k) {
				return false
			}
		}
		return true
	}
	return IsSimple(n)
}

// RefInsideAnyDef reports whether some definition in any of the given nodes
// contains a reference of x in its body (used for the flat-variable check of
// §5.3, which is a property of the whole conjunctive xregex).
func RefInsideAnyDef(x string, nodes ...Node) bool {
	return walkAll(nodes, func(n Node) bool {
		d, ok := n.(*Def)
		return ok && ContainsRef(d.Body, x)
	})
}

// DefBodies returns the bodies of all definitions of x across the given
// nodes, in syntax-tree order.
func DefBodies(x string, nodes ...Node) []Node {
	var out []Node
	walkAll(nodes, func(n Node) bool {
		if d, ok := n.(*Def); ok && d.Var == x {
			out = append(out, d.Body)
		}
		return false
	})
	return out
}

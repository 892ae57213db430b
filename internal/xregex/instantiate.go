package xregex

import "fmt"

// This file implements the per-component syntax-tree surgery of Lemma 10:
// fixing a variable mapping v̄ turns an xregex into a classical regular
// expression describing exactly the words matched with that mapping.
// The conjunctive (tuple-level) orchestration lives in package cxrpq.

// replaceVars returns n with every reference and every definition — body and
// all — replaced by f of its variable.
func replaceVars(n Node, f func(x string) Node) Node {
	switch t := n.(type) {
	case *Ref:
		return f(t.Var)
	case *Def:
		return f(t.Var)
	}
	return mapKids(n, func(k Node) Node { return replaceVars(k, f) })
}

// SubstituteAllVars replaces every reference and every definition of each
// variable by the literal image v[x] (missing entries mean ε).
func SubstituteAllVars(n Node, v map[string]string) Node {
	return replaceVars(n, func(x string) Node { return Word(v[x]) })
}

// Relax over-approximates n by a classical expression: a reference or
// definition of a variable assign has an image for becomes that image, every
// other one — with whatever is nested in it — becomes Σ*. A nil assign
// relaxes every variable. The bodies of assigned definitions are not
// checked against their images; Lemma 10's exact cut is CutFailedDefs.
func Relax(n Node, assign map[string]string) Node {
	return replaceVars(n, func(x string) Node {
		if w, ok := assign[x]; ok {
			return Word(w)
		}
		return AnyWord()
	})
}

// CutFailedDefs is Step 1 of the Lemma 10 procedure: definitions are
// considered innermost-first ("already marked" nested definitions are
// replaced by their intended images); a definition x{γ} whose substituted
// body γ′ cannot produce v[x] is replaced by ∅, which after Simplify
// propagates up to the nearest alternation — exactly the paper's surgery.
func CutFailedDefs(n Node, v map[string]string, sigma []rune) (Node, error) {
	cut, err := MapKids(n, func(k Node) (Node, error) { return CutFailedDefs(k, v, sigma) })
	if err != nil {
		return nil, err
	}
	d, ok := cut.(*Def)
	if !ok {
		return cut, nil
	}
	if isEmpty(Simplify(d.Body)) {
		return &Empty{}, nil
	}
	gamma := Simplify(SubstituteAllVars(d.Body, v))
	if ok, err = Matches(gamma, v[d.Var], sigma); err != nil {
		return nil, err
	}
	if !ok {
		return &Empty{}, nil
	}
	return cut, nil
}

// ForceVar is Step 2 of the Lemma 10 procedure for a single variable x with
// non-empty image: it prunes every alternation branch that would not
// instantiate a definition of x, so that every remaining derivation
// instantiates one. The caller must ensure ContainsDef(n, x).
func ForceVar(n Node, x string) Node {
	if !ContainsDef(n, x) {
		return &Empty{}
	}
	switch t := n.(type) {
	case *Def:
		if t.Var == x {
			return n
		}
		return &Def{Var: t.Var, Body: ForceVar(t.Body, x)}
	case *Cat:
		kids := make([]Node, len(t.Kids))
		copy(kids, t.Kids)
		for i, k := range t.Kids {
			if ContainsDef(k, x) {
				kids[i] = ForceVar(k, x)
				// sequentiality: at most one concatenation factor can hold
				// a definition of x
				break
			}
		}
		return &Cat{Kids: kids}
	case *Alt:
		var kids []Node
		for _, k := range t.Kids {
			if ContainsDef(k, x) {
				kids = append(kids, ForceVar(k, x))
			}
		}
		if len(kids) == 0 {
			return &Empty{}
		}
		return &Alt{Kids: kids}
	case *Opt:
		return ForceVar(t.Kid, x)
	default: // *Plus, *Star: a definition below them contradicts sequentiality
		panic(fmt.Sprintf("xregex: definition of $%s under repetition", x))
	}
}

// InstantiateComponent applies the full Lemma 10 procedure to one component
// of a conjunctive xregex for the fixed variable mapping v: cut failing
// definitions, force instantiation of every variable with a non-empty image
// that is defined in this component, then replace all remaining definitions
// and references by the literal images. The result is a classical regular
// expression (possibly ∅) with
//
//	L(result) = { w : w matches n with variable mapping v }
//
// relative to this component; the tuple-level condition "some component must
// actually define x when v[x] ≠ ε" is enforced by the caller.
func InstantiateComponent(n Node, v map[string]string, sigma []rune) (Node, error) {
	cut, err := CutFailedDefs(n, v, sigma)
	if err != nil {
		return nil, err
	}
	cut = Simplify(cut)
	for _, x := range SortedVars(n) {
		if v[x] == "" {
			continue
		}
		if ContainsDef(cut, x) {
			cut = Simplify(ForceVar(cut, x))
		}
	}
	return Simplify(SubstituteAllVars(cut, v)), nil
}

// InstantiationAlphabet returns sigma extended with all symbols occurring in
// the images of v, so class-free membership tests see every needed symbol.
func InstantiationAlphabet(sigma []rune, v map[string]string) []rune {
	extra := map[rune]bool{}
	for _, w := range v {
		for _, r := range w {
			extra[r] = true
		}
	}
	var rs []rune
	for r := range extra {
		rs = append(rs, r)
	}
	return MergeAlphabets(sigma, rs)
}

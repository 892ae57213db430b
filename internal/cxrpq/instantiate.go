package cxrpq

import (
	"cxrpq/internal/crpq"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// InstantiateCXRE implements Lemma 10 at the tuple level: given a fixed
// variable mapping v̄, it returns a tuple β̄ of classical regular
// expressions with L(β̄) = L_v̄(ᾱ) — the conjunctive matches of ᾱ whose
// variable mapping is exactly v̄.
//
// Steps (following the proof of Lemma 10):
//  1. cut every definition that cannot produce its intended image (with
//     nested definitions and references replaced by their images), with
//     ∅-propagation realizing the delete-up-to-alternation surgery;
//  2. for every variable with a non-empty image that is defined in the
//     tuple, force its (unique defining) component to instantiate a
//     definition — if no definition survived step 1, the whole tuple
//     becomes (∅, …, ∅);
//  3. replace all remaining definitions and references by the images.
//
// Variables that are free in ᾱ (no definition anywhere) take their images
// from the dummy definitions of the ⟨γ⟩_int semantics and need no forcing.
func InstantiateCXRE(c CXRE, v map[string]string, sigma []rune) (CXRE, error) {
	sigma = xregex.InstantiationAlphabet(xregex.MergeAlphabets(sigma, c.Alphabet()), v)
	defined := c.DefinedVars()

	// Step 1: cut failing definitions per component.
	cut := make([]xregex.Node, len(c))
	match := func(g xregex.Node, w string) (bool, error) { return xregex.Matches(g, w, sigma) }
	for i, n := range c {
		cn, err := xregex.CutFailedDefs(n, v, match)
		if err != nil {
			return nil, err
		}
		cut[i] = xregex.Simplify(cn)
	}

	empty := func() CXRE {
		out := make(CXRE, len(c))
		for i := range out {
			out[i] = &xregex.Empty{}
		}
		return out
	}

	// Step 2: force instantiation for non-empty images of defined variables.
	for x := range defined {
		if v[x] == "" {
			continue
		}
		found := false
		for i := range cut {
			if xregex.ContainsDef(cut[i], x) {
				cut[i] = xregex.Simplify(xregex.ForceVar(cut[i], x))
				found = true
			}
		}
		if !found {
			// no surviving definition can produce v[x] ≠ ε
			return empty(), nil
		}
	}

	// Step 3: replace definitions and references by the images.
	out := make(CXRE, len(c))
	for i := range cut {
		out[i] = xregex.Simplify(xregex.SubstituteAllVars(cut[i], v))
		if !xregex.IsClassical(out[i]) {
			panic("cxrpq: instantiation left variables behind")
		}
	}
	return out, nil
}

// InstantiateCRPQ implements Lemma 11: for a fixed variable mapping v̄ it
// returns a CRPQ q′ with q′(D) = q_v̄(D) for every database D.
func (q *Query) InstantiateCRPQ(v map[string]string, sigma []rune) (*crpq.Query, error) {
	inst, err := InstantiateCXRE(q.CXRE(), v, sigma)
	if err != nil {
		return nil, err
	}
	g := &pattern.Graph{Out: append([]string(nil), q.Pattern.Out...)}
	for i, e := range q.Pattern.Edges {
		g.Edges = append(g.Edges, pattern.Edge{From: e.From, To: e.To, Label: inst[i]})
	}
	return crpq.New(g)
}

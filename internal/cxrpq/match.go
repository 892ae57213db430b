package cxrpq

import (
	"sort"

	"cxrpq/internal/automata"
	"cxrpq/internal/xregex"
)

// MatchTuple decides whether w̄ ∈ L(ᾱ) — the conjunctive-match semantics of
// §3.1 — and returns a witnessing variable mapping ψ. It enumerates
// candidate images (factors of the matched words) in ≺-topological order and
// decides each full mapping via the Lemma 10 instantiation; it is the
// reference semantics used by the brute-force oracles and the expressiveness
// experiments.
func MatchTuple(c CXRE, words []string, sigma []rune) (map[string]string, bool) {
	if len(words) != len(c) {
		return nil, false
	}
	if err := c.Validate(); err != nil {
		return nil, false
	}
	sigma = xregex.MergeAlphabets(sigma, c.Alphabet())
	for _, w := range words {
		sigma = xregex.MergeAlphabets(sigma, []rune(w))
	}
	vars, err := xregex.TopoVars([]xregex.Node(c)...)
	if err != nil {
		return nil, false
	}
	defined := c.DefinedVars()

	// Candidate images: ε plus every factor of every word. Any image that
	// influences a match must occur as a factor of some matched word (it is
	// produced by a definition or consumed by a reference inside some wi).
	// Free variables whose references are all unused can take ε.
	factorSet := map[string]bool{"": true}
	for _, w := range words {
		rs := []rune(w)
		for i := 0; i <= len(rs); i++ {
			for j := i + 1; j <= len(rs); j++ {
				factorSet[string(rs[i:j])] = true
			}
		}
	}
	factors := make([]string, 0, len(factorSet))
	for f := range factorSet {
		factors = append(factors, f)
	}
	sort.Slice(factors, func(i, j int) bool {
		if len(factors[i]) != len(factors[j]) {
			return len(factors[i]) < len(factors[j])
		}
		return factors[i] < factors[j]
	})

	// Pruning automata: a defined variable's non-empty image must match some
	// definition body with all variables relaxed to Σ*. The relaxed bodies do
	// not depend on the assignment, so compile each once up front (sigma
	// already contains every rune of every factor).
	relaxed := map[string][]*automata.NFA{}
	for x := range defined {
		for _, body := range xregex.DefBodies(x, []xregex.Node(c)...) {
			m, err := xregex.Compile(xregex.Relax(body, nil), sigma)
			if err != nil {
				return nil, false
			}
			relaxed[x] = append(relaxed[x], m)
		}
	}

	assign := map[string]string{}
	var try func(i int) (map[string]string, bool)
	try = func(i int) (map[string]string, bool) {
		if i == len(vars) {
			inst, err := InstantiateCXRE(c, assign, sigma)
			if err != nil {
				return nil, false
			}
			for j, w := range words {
				ok, err := xregex.Matches(inst[j], w, xregex.InstantiationAlphabet(sigma, assign))
				if err != nil || !ok {
					return nil, false
				}
			}
			out := map[string]string{}
			for k, v := range assign {
				out[k] = v
			}
			return out, true
		}
		x := vars[i]
		for _, f := range factors {
			if f != "" && defined[x] {
				ok := false
				for _, g := range relaxed[x] {
					if g.AcceptsString(f) {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
			}
			assign[x] = f
			if r, ok := try(i + 1); ok {
				return r, true
			}
		}
		delete(assign, x)
		return nil, false
	}
	return try(0)
}

// MatchTupleBool reports w̄ ∈ L(ᾱ).
func MatchTupleBool(c CXRE, words []string, sigma []rune) bool {
	_, ok := MatchTuple(c, words, sigma)
	return ok
}

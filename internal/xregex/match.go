package xregex

import "sort"

// MatchResult is a successful match of a word against an xregex, with the
// witnessing variable mapping (Definition: w matches α with witness
// u ∈ L_ref(α) and variable mapping vmap_u).
type MatchResult struct {
	VMap map[string]string
}

// Match reports whether w ∈ L(n) and, if so, returns one witnessing
// variable mapping. sigma is the alphabet for resolving classes (it is
// automatically extended with the symbols of n and w).
//
// The implementation enumerates candidate images (all factors of w, since
// every variable image must occur as a factor of the matched word) in
// ≺-topological order with definition-based pruning, and decides each full
// mapping via the Lemma 10 instantiation. Matching xregex is NP-complete in
// general ([40] in the paper); this procedure is exponential only in the
// number of variables.
func Match(n Node, w string, sigma []rune) (*MatchResult, bool) {
	sigma = MergeAlphabets(sigma, AlphabetOf(n), []rune(w))
	vars, err := TopoVars(n)
	if err != nil {
		// Single xregex may have a cyclic ≺ relation (the cycle is only
		// through mutually exclusive alternation branches; every ref-word is
		// still acyclic). Enumeration order is then irrelevant for
		// correctness — only for pruning — so fall back to sorted order.
		vars = SortedVars(n)
	}
	defined := DefinedVars(n)
	// Candidate images: ε plus every factor (substring) of w.
	factors := []string{""}
	seen := map[string]bool{"": true}
	rs := []rune(w)
	for i := 0; i <= len(rs); i++ {
		for j := i + 1; j <= len(rs); j++ {
			f := string(rs[i:j])
			if !seen[f] {
				seen[f] = true
				factors = append(factors, f)
			}
		}
	}
	sort.Slice(factors, func(i, j int) bool {
		if len(factors[i]) != len(factors[j]) {
			return len(factors[i]) < len(factors[j])
		}
		return factors[i] < factors[j]
	})

	// Relaxed definition automata for pruning: image of x must be accepted
	// by some definition body with all variables relaxed to Σ*...
	// (necessary, not sufficient; ε is always allowed since a definition in
	// an unused branch yields an empty image).
	relaxed := map[string][]Node{}
	for x := range defined {
		for _, body := range DefBodies(x, n) {
			relaxed[x] = append(relaxed[x], Relax(body, nil))
		}
	}

	assign := map[string]string{}
	var try func(i int) (*MatchResult, bool)
	try = func(i int) (*MatchResult, bool) {
		if i == len(vars) {
			inst, err := InstantiateComponent(n, assign, InstantiationAlphabet(sigma, assign))
			if err != nil {
				return nil, false
			}
			// Tuple-level condition for a single xregex: every variable with
			// a non-empty image must have a definition (checked via pruning:
			// only defined variables get non-ε candidates).
			ok, err := Matches(inst, w, InstantiationAlphabet(sigma, assign))
			if err != nil || !ok {
				return nil, false
			}
			vm := map[string]string{}
			for k, v := range assign {
				vm[k] = v
			}
			return &MatchResult{VMap: vm}, true
		}
		x := vars[i]
		var cands []string
		if !defined[x] {
			cands = []string{""}
		} else {
			for _, f := range factors {
				if f == "" {
					cands = append(cands, f)
					continue
				}
				for _, g := range relaxed[x] {
					if ok, err := Matches(g, f, MergeAlphabets(sigma, []rune(f))); err == nil && ok {
						cands = append(cands, f)
						break
					}
				}
			}
		}
		for _, c := range cands {
			assign[x] = c
			if r, ok := try(i + 1); ok {
				return r, true
			}
		}
		delete(assign, x)
		return nil, false
	}
	return try(0)
}

// MatchBool reports w ∈ L(n).
func MatchBool(n Node, w string, sigma []rune) bool {
	_, ok := Match(n, w, sigma)
	return ok
}

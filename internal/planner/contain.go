package planner

import "cxrpq/internal/automata"

// Containment-based query minimization. Minimizing
// Conjunctive Regular Path Queries (Figueira–Morvan–Romero) shows that
// deciding whether an atom is redundant reduces to CRPQ containment,
// which is EXPSPACE-complete in general — so this pass implements a sound
// sufficient condition that covers the rewrites that actually occur in
// workloads: an atom x →L y is redundant whenever another atom x →L' y
// with the *same* endpoint pair satisfies L' ⊆ L (the identity mapping on
// endpoints is an endpoint homomorphism, and any path witnessing the
// tighter language also witnesses the looser one). Language containment
// is decided on the existing subset-construction machinery with a hard
// cap on explored product states; hitting the cap means "undecided", and
// undecided atoms are kept — dropping is only ever done on a proof.

// DefaultContainLimit caps the number of determinized product states a
// single containment check may intern before giving up. Query automata
// are tiny (tens of states), so the cap exists to bound pathological
// regexes, not typical ones.
const DefaultContainLimit = 4096

// LangContains reports whether L(sub) ⊆ L(sup), exploring the product of
// the two subset constructions breadth-first. decided=false means the
// check hit the state cap (limit <= 0 selects DefaultContainLimit) and
// the answer is unknown.
func LangContains(sub, sup *automata.SubsetCache, limit int) (contained, decided bool) {
	if limit <= 0 {
		limit = DefaultContainLimit
	}
	ctrContainChecks.Add(1)
	if sub == sup {
		return true, true
	}
	type pair struct{ a, b int32 }
	start := pair{sub.Start(), sup.Start()}
	seen := map[pair]bool{start: true}
	queue := []pair{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		// A word accepted by sub but not by sup refutes containment. The
		// Dead id of sup is a permanent non-final sink, so reaching it on
		// a sub-live run refutes as soon as sub accepts.
		if sub.Final(p.a) && (p.b == automata.Dead || !sup.Final(p.b)) {
			return false, true
		}
		// Labels worth stepping: only those with sub-transitions — on any
		// other label sub's run dies and no word extends to a counterexample.
		m := sub.NFA()
		labels := map[int32]bool{}
		for _, st := range sub.Set(p.a) {
			for _, t := range m.Transitions(st) {
				if t.Label != automata.Epsilon {
					labels[t.Label] = true
				}
			}
		}
		for l := range labels {
			na := sub.Step(p.a, l)
			if na == automata.Dead {
				continue
			}
			nb := automata.Dead
			if p.b != automata.Dead {
				nb = sup.Step(p.b, l)
			}
			np := pair{na, nb}
			if seen[np] {
				continue
			}
			if len(seen) >= limit {
				ctrContainBails.Add(1)
				return false, false
			}
			seen[np] = true
			queue = append(queue, np)
		}
	}
	return true, true
}

// MinAtom is one conjunct as the minimization pass sees it: its endpoint
// variables and the subset-construction cache of its compiled language.
// A nil Cache marks the atom ineligible (e.g. a label with string
// variables, whose language depends on the mapping) — ineligible atoms
// are never dropped and never subsume others.
type MinAtom struct {
	From, To string
	Cache    *automata.SubsetCache
}

// Minimize returns drop[i] = true for every atom that is provably
// redundant: some kept atom j with the same (From, To) endpoint pair has
// L(j) ⊆ L(i). When two atoms have equal languages the one with the
// higher index is dropped. The pass is greedy and sound: an atom is only
// deleted against a subsumer that itself survives.
func (t Tuning) Minimize(atoms []MinAtom, limit int) []bool {
	drop := make([]bool, len(atoms))
	if t.NoMinimize || len(atoms) < 2 {
		return drop
	}
	// Group by endpoint pair; only groups with ≥2 eligible atoms can
	// contain a redundancy, so the common case does zero containment work.
	groups := map[[2]string][]int{}
	for i, a := range atoms {
		if a.Cache != nil {
			k := [2]string{a.From, a.To}
			groups[k] = append(groups[k], i)
		}
	}
	// memo[i][j] caches LangContains(atoms[j], atoms[i]) verdicts:
	// +1 contained, -1 not/undecided.
	memo := map[[2]int]int{}
	within := func(j, i int) bool {
		k := [2]int{j, i}
		if v, ok := memo[k]; ok {
			return v > 0
		}
		contained, decided := LangContains(atoms[j].Cache, atoms[i].Cache, limit)
		v := -1
		if contained && decided {
			v = 1
		}
		memo[k] = v
		return v > 0
	}
	dropped := uint64(0)
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		for _, i := range g {
			for _, j := range g {
				if i == j || drop[j] || drop[i] {
					continue
				}
				if !within(j, i) {
					continue
				}
				// L(j) ⊆ L(i): atom i is implied by atom j. On equal
				// languages keep the lower index deterministically.
				if within(i, j) && j > i {
					continue
				}
				drop[i] = true
				dropped++
				break
			}
		}
	}
	if dropped > 0 {
		ctrAtomsMinimized.Add(dropped)
	}
	return drop
}

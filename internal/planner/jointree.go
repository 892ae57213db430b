package planner

import "sort"

// Acyclicity detection for the conjunct graph. A CRPQ's
// conjunctive skeleton is a hypergraph whose hyperedges are the atoms'
// endpoint-variable sets; GYO reduction (repeated ear removal) decides
// α-acyclicity and, on success, yields a join tree with the running
// intersection property — the structure the Yannakakis semijoin program
// in ecrpq evaluates in two linear passes. FreeConnex additionally tests
// the query+head hypergraph, which is what licenses skipping the
// enumeration of subtrees holding no output variable.

// JoinTree is the GYO witness for an acyclic conjunct set, indexed by
// atom position in the input edge list.
type JoinTree struct {
	// Parent[i] is the atom index of atom i's parent, -1 for a root, and
	// -2 for atoms excluded from the tree (skip[i] was set).
	Parent []int
	// Order lists the tree's atoms with every parent before its children
	// (the enumeration order of the Yannakakis third pass).
	Order []int
	// Shared[i] is the sorted list of variables atom i shares with its
	// parent (empty at roots and across cross-product links).
	Shared [][]string
}

// atomVars returns the deduplicated endpoint-variable set of an atom.
func atomVars(e EdgeRef) []string {
	if e.From == e.To {
		return []string{e.From}
	}
	return []string{e.From, e.To}
}

// gyo runs GYO ear removal over arbitrary-arity hyperedges. It returns,
// for each hyperedge, the index of the witness hyperedge it was removed
// against (-1 for the last survivor of each component) plus the removal
// sequence, and reports whether the hypergraph is α-acyclic. Hyperedges
// with nil varsets are ignored.
func gyo(varsets [][]string) (parent, removed []int, ok bool) {
	parent = make([]int, len(varsets))
	alive := 0
	for i := range parent {
		parent[i] = -2
		if varsets[i] != nil {
			parent[i] = -1
			alive++
		}
	}
	occurs := func(v string, not int) int {
		for j, vs := range varsets {
			if j == not || parent[j] == -2 || removedIn(removed, j) {
				continue
			}
			for _, w := range vs {
				if w == v {
					return j
				}
			}
		}
		return -1
	}
	for alive > 1 {
		progress := false
		for i, vs := range varsets {
			if parent[i] == -2 || removedIn(removed, i) || alive <= 1 {
				continue
			}
			// boundary: the vars of i visible outside i.
			var boundary []string
			for _, v := range vs {
				if occurs(v, i) >= 0 {
					boundary = append(boundary, v)
				}
			}
			// An ear needs one witness hyperedge covering its boundary;
			// prefer the witness sharing the most variables with i.
			best, bestShared := -1, -1
			for j, ws := range varsets {
				if j == i || parent[j] == -2 || removedIn(removed, j) {
					continue
				}
				if !subset(boundary, ws) {
					continue
				}
				shared := 0
				for _, v := range vs {
					for _, w := range ws {
						if v == w {
							shared++
						}
					}
				}
				if shared > bestShared {
					best, bestShared = j, shared
				}
			}
			if best >= 0 {
				parent[i] = best
				removed = append(removed, i)
				alive--
				progress = true
			}
		}
		if !progress {
			return nil, nil, false
		}
	}
	// Survivors (one per run; cross-component links were absorbed because
	// an empty boundary is covered by any witness) append last as roots.
	for i := range varsets {
		if parent[i] != -2 && !removedIn(removed, i) {
			removed = append(removed, i)
		}
	}
	return parent, removed, true
}

func removedIn(removed []int, i int) bool {
	for _, r := range removed {
		if r == i {
			return true
		}
	}
	return false
}

// subset reports whether every element of a occurs in b.
func subset(a, b []string) bool {
	for _, v := range a {
		found := false
		for _, w := range b {
			if v == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// BuildJoinTree runs GYO reduction over the (non-skipped) atoms of the
// conjunct set and returns the join tree, or ok=false when the conjunct
// graph is cyclic. Parallel atoms, self-loops and disconnected components
// are all handled: a disconnected component hangs off an arbitrary
// witness with an empty Shared list, which the Yannakakis passes treat as
// a cross product (empty child ⇒ empty parent).
func BuildJoinTree(edges []EdgeRef, skip []bool) (*JoinTree, bool) {
	varsets := make([][]string, len(edges))
	for i, e := range edges {
		if skip != nil && skip[i] {
			continue
		}
		varsets[i] = atomVars(e)
	}
	parent, removed, ok := gyo(varsets)
	if !ok {
		return nil, false
	}
	t := &JoinTree{Parent: parent, Shared: make([][]string, len(edges))}
	// Reverse of the removal sequence puts every witness (still alive at
	// its child's removal, so removed later) before the child.
	for i := len(removed) - 1; i >= 0; i-- {
		t.Order = append(t.Order, removed[i])
	}
	for i := range edges {
		p := parent[i]
		if p < 0 {
			continue
		}
		var shared []string
		for _, v := range varsets[i] {
			for _, w := range varsets[p] {
				if v == w {
					shared = append(shared, v)
				}
			}
		}
		sort.Strings(shared)
		t.Shared[i] = shared
	}
	return t, true
}

// FreeConnex reports whether the query is free-connex acyclic: the
// conjunct hypergraph extended with one hyperedge holding exactly the
// output variables is still acyclic. (For Boolean queries this coincides
// with plain acyclicity.) Free-connex queries admit enumeration that
// never materializes non-output subtrees.
func FreeConnex(edges []EdgeRef, skip []bool, out []string) bool {
	varsets := make([][]string, 0, len(edges)+1)
	for i, e := range edges {
		if skip != nil && skip[i] {
			varsets = append(varsets, nil)
			continue
		}
		varsets = append(varsets, atomVars(e))
	}
	if len(out) > 0 {
		head := map[string]bool{}
		var hv []string
		for _, v := range out {
			if !head[v] {
				head[v] = true
				hv = append(hv, v)
			}
		}
		varsets = append(varsets, hv)
	}
	_, _, ok := gyo(varsets)
	return ok
}

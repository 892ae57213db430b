package reductions

import (
	"fmt"
	"strings"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
)

// HittingSetInstance is an instance of the NP-complete Hitting Set problem:
// subsets A_1,…,A_m of a universe U = {0,…,N-1} and a bound K.
type HittingSetInstance struct {
	N    int
	Sets [][]int
	K    int
}

// HasHittingSet solves the instance by brute force (the oracle side of the
// Theorem 7 correctness check).
func (h *HittingSetInstance) HasHittingSet() bool {
	// enumerate subsets B ⊆ U with |B| ≤ K
	var rec func(start int, chosen []int) bool
	hits := func(chosen []int) bool {
		for _, set := range h.Sets {
			hit := false
			for _, z := range set {
				for _, c := range chosen {
					if z == c {
						hit = true
						break
					}
				}
				if hit {
					break
				}
			}
			if !hit {
				return false
			}
		}
		return true
	}
	rec = func(start int, chosen []int) bool {
		if hits(chosen) {
			return true
		}
		if len(chosen) == h.K {
			return false
		}
		for z := start; z < h.N; z++ {
			if rec(z+1, append(chosen, z)) {
				return true
			}
		}
		return false
	}
	return rec(0, nil)
}

// encode is ⟨z_i⟩ = b a^{i+1} b (the paper uses 1-based indices).
func (h *HittingSetInstance) encode(z int) string {
	return "b" + strings.Repeat("a", z+1) + "b"
}

// ToGraphDB builds the database of Figure 4: a #-arc into a chain of K
// "choose an element" blocks, a #-arc into a chain of m "hit set A_i"
// blocks with U-self-loops in between, and a final #-arc to t.
func (h *HittingSetInstance) ToGraphDB() *graph.DB {
	d := graph.New()
	s := d.Node("s")
	t := d.Node("t")
	u := make([]int, h.K+1)
	for i := range u {
		u[i] = d.Node(fmt.Sprintf("u%d", i))
	}
	v := make([]int, len(h.Sets)+1)
	for i := range v {
		v[i] = d.Node(fmt.Sprintf("v%d", i))
	}
	d.AddEdge(s, '#', u[0])
	for i := 1; i <= h.K; i++ {
		for z := 0; z < h.N; z++ {
			d.AddPath(u[i-1], h.encode(z), u[i])
		}
	}
	d.AddEdge(u[h.K], '#', v[0])
	for i, set := range h.Sets {
		for _, z := range set {
			d.AddPath(v[i], h.encode(z), v[i+1])
		}
	}
	for i := 0; i <= len(h.Sets); i++ {
		for z := 0; z < h.N; z++ {
			d.AddPath(v[i], h.encode(z), v[i]) // U-self-loops
		}
	}
	d.AddEdge(v[len(h.Sets)], '#', t)
	return d
}

// ToCXRPQ builds the Boolean single-edge query of Theorem 7:
//
//	α = # Π_{i=1}^{(n+2)k} x_i{a|b|ε} # ( Π x_i )^m #
//
// Every variable image is a single symbol or ε, so the query can be read as
// a CXRPQ^≤1 (in fact L^≤k(α) = L(α) for every k ≥ 1). The conjunctive
// xregex is simple, yet evaluation is NP-hard in combined complexity.
func (h *HittingSetInstance) ToCXRPQ() (*cxrpq.Query, error) {
	nvars := (h.N + 2) * h.K
	var defs, refs strings.Builder
	for i := 1; i <= nvars; i++ {
		fmt.Fprintf(&defs, "$x%d{a|b|()}", i)
		fmt.Fprintf(&refs, "$x%d", i)
	}
	var label strings.Builder
	label.WriteString("#")
	label.WriteString(defs.String())
	label.WriteString("#")
	label.WriteString("(" + refs.String() + ")")
	for i := 1; i < len(h.Sets); i++ {
		label.WriteString("(" + refs.String() + ")")
	}
	label.WriteString("#")
	return cxrpq.Parse("ans()\nx y : " + label.String())
}

// SolveViaReduction answers the instance by evaluating the reduction's
// query on the reduction's database under CXRPQ^≤1 semantics.
func (h *HittingSetInstance) SolveViaReduction() (bool, error) {
	q, err := h.ToCXRPQ()
	if err != nil {
		return false, err
	}
	resp := cxrpq.Do(q, h.ToGraphDB(), cxrpq.Request{Op: "bool", Semantics: "bounded", K: 1})
	return resp.OK, resp.Err
}

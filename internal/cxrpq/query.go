// Package cxrpq implements the paper's primary contribution: conjunctive
// xregex path queries (CXRPQ, Definitions 4 and 5) and their fragments
// CXRPQ^vsf (§5), CXRPQ^vsf,fl (§5.3), CXRPQ^≤k (§6) and CXRPQ^log (§6.2),
// together with the evaluation algorithms behind Theorems 2, 5, 6 and
// Corollary 1, the normal-form construction of Lemmas 4–6 and 8, and the
// expressiveness translations of Lemmas 12–14 (Figure 5).
package cxrpq

import (
	"fmt"

	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// CXRE is a conjunctive xregex ᾱ = (α1, …, αm) (Definition 4): a tuple of
// xregex such that α1·α2·…·αm is an acyclic, sequential xregex.
type CXRE []xregex.Node

// Validate checks Definition 4: the concatenation of the components must be
// a (sequential) xregex with acyclic variable relation ≺.
func (c CXRE) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("cxrpq: empty conjunctive xregex")
	}
	for i, n := range c {
		if err := xregex.ValidateWellFormed(n); err != nil {
			return fmt.Errorf("cxrpq: component %d: %v", i, err)
		}
	}
	cat := &xregex.Cat{Kids: append([]xregex.Node(nil), c...)}
	if !xregex.IsSequential(cat) {
		return fmt.Errorf("cxrpq: α1…α%d is not sequential (some variable may be defined twice)", len(c))
	}
	if !xregex.IsAcyclic(c...) {
		return fmt.Errorf("cxrpq: variable relation ≺ is cyclic")
	}
	return nil
}

// DefinedVars returns the variables with a definition in some component.
func (c CXRE) DefinedVars() map[string]bool {
	out := map[string]bool{}
	for _, n := range c {
		for v := range xregex.DefinedVars(n) {
			out[v] = true
		}
	}
	return out
}

// Vars returns all variables of the tuple.
func (c CXRE) Vars() map[string]bool {
	out := map[string]bool{}
	for _, n := range c {
		for v := range xregex.Vars(n) {
			out[v] = true
		}
	}
	return out
}

// Size returns |ᾱ| = Σ |αi|.
func (c CXRE) Size() int {
	s := 0
	for _, n := range c {
		s += xregex.Size(n)
	}
	return s
}

// IsVStarFree reports whether every component is vstar-free (§5).
func (c CXRE) IsVStarFree() bool {
	for _, n := range c {
		if !xregex.IsVStarFree(n) {
			return false
		}
	}
	return true
}

// IsSimple reports whether every component is simple (§5).
func (c CXRE) IsSimple() bool {
	for _, n := range c {
		if !xregex.IsSimple(n) {
			return false
		}
	}
	return true
}

// IsClassical reports whether no component uses variables (a CRPQ tuple).
func (c CXRE) IsClassical() bool {
	for _, n := range c {
		if !xregex.IsClassical(n) {
			return false
		}
	}
	return true
}

// FlatVars reports whether every variable is flat (§5.3): its definition is
// basic, or it has no reference inside any other definition.
func (c CXRE) FlatVars() bool {
	nodes := []xregex.Node(c)
	for v := range c.Vars() {
		flat := true
		for _, body := range xregex.DefBodies(v, nodes...) {
			if !xregex.IsBasicDef(body) {
				flat = false
				break
			}
		}
		if flat {
			continue
		}
		if xregex.RefInsideAnyDef(v, nodes...) {
			return false
		}
	}
	return true
}

// Alphabet returns the terminal symbols used by the tuple.
func (c CXRE) Alphabet() []rune { return xregex.AlphabetOf([]xregex.Node(c)...) }

// Clone returns a deep copy.
func (c CXRE) Clone() CXRE {
	out := make(CXRE, len(c))
	for i, n := range c {
		out[i] = xregex.Clone(n)
	}
	return out
}

// Query is a CXRPQ (Definition 5): a conjunctive path query whose edge
// labels, read in edge order, form a conjunctive xregex.
type Query struct {
	Pattern *pattern.Graph
}

// New validates and wraps a pattern as a CXRPQ.
func New(g *pattern.Graph) (*Query, error) {
	q := &Query{Pattern: g}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Parse parses the textual query format into a CXRPQ.
func Parse(src string) (*Query, error) {
	g, err := pattern.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return New(g)
}

// MustParse is Parse but panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks the pattern and the conjunctive xregex conditions.
func (q *Query) Validate() error {
	if err := q.Pattern.Validate(); err != nil {
		return err
	}
	if len(q.Pattern.Edges) == 0 {
		return fmt.Errorf("cxrpq: query has no edges")
	}
	return q.CXRE().Validate()
}

// CXRE returns the conjunctive xregex of the query (edge labels in order).
func (q *Query) CXRE() CXRE { return CXRE(q.Pattern.Labels()) }

// Size returns |q|.
func (q *Query) Size() int { return q.Pattern.Size() }

// IsVStarFree reports q ∈ CXRPQ^vsf.
func (q *Query) IsVStarFree() bool { return q.CXRE().IsVStarFree() }

// IsVStarFreeFlat reports q ∈ CXRPQ^vsf,fl (§5.3).
func (q *Query) IsVStarFreeFlat() bool {
	c := q.CXRE()
	return c.IsVStarFree() && c.FlatVars()
}

// IsSimple reports whether the conjunctive xregex is simple.
func (q *Query) IsSimple() bool { return q.CXRE().IsSimple() }

// IsCRPQ reports whether the query is variable-free.
func (q *Query) IsCRPQ() bool { return q.CXRE().IsClassical() }

// Fragment returns a human-readable name of the smallest syntactic fragment
// containing q, for reporting.
func (q *Query) Fragment() string {
	switch {
	case q.IsCRPQ():
		return "CRPQ"
	case q.IsSimple():
		return "CXRPQ (simple)"
	case q.IsVStarFreeFlat():
		return "CXRPQ^vsf,fl"
	case q.IsVStarFree():
		return "CXRPQ^vsf"
	default:
		return "CXRPQ"
	}
}

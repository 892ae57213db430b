package ecrpq

import (
	"fmt"

	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// Group attaches a regular relation to a set of pattern edges: the matching
// words of those edges (in edge-index order) must form a tuple of the
// relation.
type Group struct {
	Edges []int
	Rel   Relation
}

// Query is an ECRPQ: q = z̄ ← G, ∧_j R_j(ω̄_j). Edges not mentioned in any
// group are constrained only by their own (classical) regular expression.
type Query struct {
	Pattern *pattern.Graph
	Groups  []Group
}

// Validate checks that edge labels are classical, group arities match, and
// no edge belongs to two groups.
func (q *Query) Validate() error {
	if err := q.Pattern.Validate(); err != nil {
		return err
	}
	for i, e := range q.Pattern.Edges {
		if !xregex.IsClassical(e.Label) {
			return fmt.Errorf("ecrpq: edge %d label %s contains variables", i, xregex.String(e.Label))
		}
	}
	seen := map[int]bool{}
	for gi, g := range q.Groups {
		if g.Rel == nil {
			return fmt.Errorf("ecrpq: group %d has no relation", gi)
		}
		if len(g.Edges) == 0 {
			return fmt.Errorf("ecrpq: group %d has no edges", gi)
		}
		if g.Rel.Arity() != len(g.Edges) {
			return fmt.Errorf("ecrpq: group %d arity %d but %d edges", gi, g.Rel.Arity(), len(g.Edges))
		}
		for _, ei := range g.Edges {
			if ei < 0 || ei >= len(q.Pattern.Edges) {
				return fmt.Errorf("ecrpq: group %d references edge %d out of range", gi, ei)
			}
			if seen[ei] {
				return fmt.Errorf("ecrpq: edge %d in two groups", ei)
			}
			seen[ei] = true
		}
	}
	return nil
}

// IsER reports whether the query is in ECRPQ^er: every relation is an
// equality relation (§1.3, §7).
func (q *Query) IsER() bool {
	for _, g := range q.Groups {
		if _, ok := g.Rel.(*Equality); !ok {
			return false
		}
	}
	return true
}

// IsCRPQ reports whether the query has no relations at all, i.e. is a plain
// CRPQ.
func (q *Query) IsCRPQ() bool { return len(q.Groups) == 0 }

// Size returns a size measure: pattern size plus relation transition counts.
func (q *Query) Size() int {
	s := q.Pattern.Size()
	for _, g := range q.Groups {
		if r, ok := g.Rel.(*NFARelation); ok {
			s += r.M.NumTransitions()
		} else {
			s += len(g.Edges)
		}
	}
	return s
}

// Union is a union of ECRPQs (∪-ECRPQ, §7): q = q1 ∨ … ∨ qk with
// q(D) = ⋃ qi(D). All members must have the same output arity.
type Union struct {
	Members []*Query
}

// Validate checks all members and their output arities.
func (u *Union) Validate() error {
	if len(u.Members) == 0 {
		return fmt.Errorf("ecrpq: empty union")
	}
	arity := len(u.Members[0].Pattern.Out)
	for i, m := range u.Members {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("ecrpq: union member %d: %v", i, err)
		}
		if len(m.Pattern.Out) != arity {
			return fmt.Errorf("ecrpq: union member %d has arity %d, want %d", i, len(m.Pattern.Out), arity)
		}
	}
	return nil
}

// Size returns the total size of all members.
func (u *Union) Size() int {
	s := 0
	for _, m := range u.Members {
		s += m.Size()
	}
	return s
}

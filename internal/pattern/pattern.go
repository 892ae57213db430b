// Package pattern provides the shared representation of graph patterns for
// conjunctive path queries (§2.3): a directed, edge-labelled graph whose
// vertices are node variables and whose edge labels are language descriptors
// (here: xregex trees; classical regular expressions for CRPQs).
package pattern

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cxrpq/internal/xregex"
)

// Edge is one arc (From, Label, To) of a graph pattern.
type Edge struct {
	From  string
	To    string
	Label xregex.Node
}

// Graph is an ℜ-graph pattern together with the output tuple z̄ of the
// query q = z̄ ← G. An empty Out means a Boolean query.
type Graph struct {
	Out   []string
	Edges []Edge
}

// Vars returns the sorted node variables of the pattern (edge endpoints and
// output variables).
func (g *Graph) Vars() []string {
	set := map[string]bool{}
	for _, e := range g.Edges {
		set[e.From] = true
		set[e.To] = true
	}
	for _, z := range g.Out {
		set[z] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Reads reports, per edge, whether its From and its To endpoint is read by
// anything else: the output, pre, another edge not in skip, or its own other
// end (a self-loop). An atom with an endpoint nothing reads constrains the
// query only through the set of nodes its other endpoint can take.
func (g *Graph) Reads(skip []bool, pre map[string]int) (from, to []bool) {
	uses := map[string]int{}
	for _, z := range g.Out {
		uses[z] = 2
	}
	for z := range pre {
		uses[z] = 2
	}
	for i, e := range g.Edges {
		if i >= len(skip) || !skip[i] {
			uses[e.From]++
			uses[e.To]++
		}
	}
	from, to = make([]bool, len(g.Edges)), make([]bool, len(g.Edges))
	for i, e := range g.Edges {
		from[i], to[i] = uses[e.From] > 1, uses[e.To] > 1
	}
	return from, to
}

// Labels returns the edge labels in edge order.
func (g *Graph) Labels() []xregex.Node {
	out := make([]xregex.Node, len(g.Edges))
	for i, e := range g.Edges {
		out[i] = e.Label
	}
	return out
}

// Validate checks that every output variable occurs in the pattern.
func (g *Graph) Validate() error {
	vars := map[string]bool{}
	for _, e := range g.Edges {
		vars[e.From] = true
		vars[e.To] = true
	}
	for _, z := range g.Out {
		if !vars[z] {
			return fmt.Errorf("pattern: output variable %q does not occur in any edge", z)
		}
	}
	return nil
}

// Size returns |q|: the number of edges plus the sizes of all edge labels.
func (g *Graph) Size() int {
	s := len(g.Edges)
	for _, e := range g.Edges {
		s += xregex.Size(e.Label)
	}
	return s
}

// IsBoolean reports whether the query has an empty output tuple.
func (g *Graph) IsBoolean() bool { return len(g.Out) == 0 }

// String renders the pattern in the textual query format.
func (g *Graph) String() string {
	s := "ans("
	for i, z := range g.Out {
		if i > 0 {
			s += ", "
		}
		s += z
	}
	s += ")\n"
	for _, e := range g.Edges {
		s += fmt.Sprintf("%s %s : %s\n", e.From, e.To, xregex.String(e.Label))
	}
	return s
}

// Clone returns a deep copy of the pattern.
func (g *Graph) Clone() *Graph {
	c := &Graph{Out: append([]string(nil), g.Out...)}
	for _, e := range g.Edges {
		c.Edges = append(c.Edges, Edge{From: e.From, To: e.To, Label: xregex.Clone(e.Label)})
	}
	return c
}

// Tuple is an output tuple of node ids.
type Tuple []int

// Key returns a canonical map key for the tuple: the uvarint encoding of
// its ids, concatenated. Varints are self-delimiting and uint64 conversion
// is a bijection on int, so distinct tuples yield distinct keys. It names one
// request's tuple in a cache key; sets of rows never go through it.
func (t Tuple) Key() string {
	b := make([]byte, 0, 16)
	for _, v := range t {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return string(b)
}

// Package pattern provides the shared representation of graph patterns for
// conjunctive path queries (§2.3): a directed, edge-labelled graph whose
// vertices are node variables and whose edge labels are language descriptors
// (here: xregex trees; classical regular expressions for CRPQs).
package pattern

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

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

// keyBuf recycles the scratch buffer Key encodes into; the returned string
// is its own allocation, so pooling the buffer leaves exactly one
// allocation per key.
var keyBuf = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// Key returns a canonical map key for the tuple: the uvarint encoding of
// its ids, concatenated. Varints are self-delimiting, so distinct tuples
// yield distinct keys, at a fraction of the cost and size of the decimal
// print this replaces. uint64 conversion is a bijection on int, so the
// encoding stays injective even for out-of-range ids.
func (t Tuple) Key() string {
	bp := keyBuf.Get().(*[]byte)
	b := (*bp)[:0]
	for _, v := range t {
		b = binary.AppendUvarint(b, uint64(v))
	}
	s := string(b)
	*bp = b
	keyBuf.Put(bp)
	return s
}

// TupleSet is a set of output tuples with deterministic enumeration order.
type TupleSet struct {
	seen map[string]bool
	list []Tuple
}

// NewTupleSet returns an empty tuple set.
func NewTupleSet() *TupleSet { return &TupleSet{seen: map[string]bool{}} }

// Add inserts t if not present; it reports whether t was new.
func (s *TupleSet) Add(t Tuple) bool {
	k := t.Key()
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.list = append(s.list, append(Tuple(nil), t...))
	return true
}

// Contains reports membership.
func (s *TupleSet) Contains(t Tuple) bool { return s.seen[t.Key()] }

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.list) }

// All returns the tuples in insertion order. The returned slice is the
// set's backing storage — callers must not modify it or hold it across a
// later Add.
func (s *TupleSet) All() []Tuple { return s.list }

// Sorted returns the tuples in lexicographic order.
func (s *TupleSet) Sorted() []Tuple {
	out := append([]Tuple(nil), s.list...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// Equal reports whether two tuple sets contain the same tuples.
func (s *TupleSet) Equal(o *TupleSet) bool {
	if s.Len() != o.Len() {
		return false
	}
	for k := range s.seen {
		if !o.seen[k] {
			return false
		}
	}
	return true
}

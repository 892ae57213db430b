package ecrpq

import (
	"fmt"
	"strconv"
	"strings"

	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// ParseQuery parses the textual ECRPQ format: the CXRPQ pattern format
// (ans clause + edges with classical regular expressions) extended with
// relation lines referring to edges by 0-based index:
//
//	ans(x, y)
//	x y : (ab)+
//	u v : .*
//	rel equality 0 1
//	rel equal-length 0 1
//	rel prefix 0 1
//	rel hamming:2 0 1
//
// Relation kinds: equality (any arity), equal-length (any arity), prefix
// (binary), hamming:<d> (binary). The relation alphabet is taken from
// sigma; pass the database alphabet (merged with the query's symbols by
// the engine as needed).
func ParseQuery(src string, sigma []rune) (*Query, error) {
	var patternLines, relLines []string
	for line := range strings.Lines(src) { // no scanner: a line has no length limit
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "rel ") || line == "rel" {
			relLines = append(relLines, line)
			continue
		}
		patternLines = append(patternLines, line)
	}
	g, err := pattern.ParseQuery(strings.Join(patternLines, "\n"))
	if err != nil {
		return nil, err
	}
	q := &Query{Pattern: g}
	sigma = xregex.MergeAlphabets(sigma, xregex.AlphabetOf(g.Labels()...))
	for _, line := range relLines {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("ecrpq: relation line needs kind and at least two edges: %q", line)
		}
		kind := fields[1]
		var edges []int
		for _, f := range fields[2:] {
			i, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("ecrpq: bad edge index %q in %q", f, line)
			}
			edges = append(edges, i)
		}
		if len(edges) < 2 {
			return nil, fmt.Errorf("ecrpq: relation needs at least two edges: %q", line)
		}
		var rel Relation
		switch {
		case kind == "equality":
			rel = &Equality{N: len(edges)}
		case kind == "equal-length":
			rel = EqualLength(len(edges), sigma)
		case kind == "prefix":
			if len(edges) != 2 {
				return nil, fmt.Errorf("ecrpq: prefix relation is binary: %q", line)
			}
			rel = PrefixRelation(sigma)
		case strings.HasPrefix(kind, "hamming:"):
			d, err := strconv.Atoi(strings.TrimPrefix(kind, "hamming:"))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("ecrpq: bad hamming distance in %q", line)
			}
			if len(edges) != 2 {
				return nil, fmt.Errorf("ecrpq: hamming relation is binary: %q", line)
			}
			rel = HammingAtMost(d, sigma)
		default:
			return nil, fmt.Errorf("ecrpq: unknown relation kind %q", kind)
		}
		q.Groups = append(q.Groups, Group{Edges: edges, Rel: rel})
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string, sigma []rune) *Query {
	q, err := ParseQuery(src, sigma)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the query in the ParseQuery format (relation parameters
// such as the hamming distance are not reconstructible from the NFA and are
// rendered as "nfa" comments).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Pattern.String())
	for _, g := range q.Groups {
		switch g.Rel.(type) {
		case *Equality:
			b.WriteString("rel equality")
		default:
			b.WriteString("# rel nfa")
		}
		for _, ei := range g.Edges {
			fmt.Fprintf(&b, " %d", ei)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package pattern

import (
	"fmt"
	"strings"

	"cxrpq/internal/xregex"
)

// ParseQuery parses the textual query format:
//
//	# comment
//	ans(x, y)          — output tuple (ans() for Boolean queries)
//	x y : xregex       — one edge per line
//
// The first non-comment line must be the ans(...) clause.
func ParseQuery(src string) (*Graph, error) {
	g := &Graph{}
	sawAns := false
	lineNo := 0
	for line := range strings.Lines(src) { // no scanner: a line has no length limit
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawAns {
			if !strings.HasPrefix(line, "ans(") || !strings.HasSuffix(line, ")") {
				return nil, fmt.Errorf("query: line %d: expected ans(...) clause, got %q", lineNo, line)
			}
			inner := strings.TrimSuffix(strings.TrimPrefix(line, "ans("), ")")
			inner = strings.TrimSpace(inner)
			if inner != "" {
				for _, v := range strings.Split(inner, ",") {
					g.Out = append(g.Out, strings.TrimSpace(v))
				}
			}
			sawAns = true
			continue
		}
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("query: line %d: expected 'from to : xregex', got %q", lineNo, line)
		}
		head := strings.Fields(line[:colon])
		if len(head) != 2 {
			return nil, fmt.Errorf("query: line %d: expected two node variables before ':', got %q", lineNo, line[:colon])
		}
		label, err := xregex.Parse(strings.TrimSpace(line[colon+1:]))
		if err != nil {
			return nil, fmt.Errorf("query: line %d: %v", lineNo, err)
		}
		g.Edges = append(g.Edges, Edge{From: head[0], To: head[1], Label: label})
	}
	if !sawAns {
		return nil, fmt.Errorf("query: missing ans(...) clause")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string) *Graph {
	g, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return g
}

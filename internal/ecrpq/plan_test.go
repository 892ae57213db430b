package ecrpq

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cxrpq/internal/pattern"
)

// TestJoinOrder pins the one ordering rule: fewest unbound endpoints first,
// ties in query order, a self-loop's variable counted once, pre-bound
// variables bound from the start, skipped edges left out, and every placed
// edge's endpoints bound on return.
func TestJoinOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges string // "from to" pairs, comma-separated
		skip  []int
		pre   string // pre-bound variables, space-separated
		want  string // "edge:mode" per placed edge
	}{
		{"chain", "x y, y z, z w", nil, "", "0:scan 1:expand 2:expand"},
		{"star", "y1 x, y2 x, y3 x", nil, "", "0:scan 1:expand-rev 2:expand-rev"},
		{"3-cycle", "x y, y z, z x", nil, "", "0:scan 1:expand 2:check"},
		{"self-loop first", "x y, z z, z w", nil, "", "1:scan 2:expand 0:scan"},
		{"bound self-loop", "x y, y y", nil, "y", "1:check 0:expand-rev"},
		{"pre-bound far end", "x y, y z, z w", nil, "w", "2:expand-rev 1:expand-rev 0:expand-rev"},
		{"pre-bound both ends", "x y, y z, z w", nil, "x w", "0:expand 1:expand 2:check"},
		{"tie in query order", "u v, x y", nil, "", "0:scan 1:scan"},
		{"later atom bound", "x y, y z", nil, "z", "1:expand-rev 0:expand-rev"},
		{"skipped group atoms", "x y, y z, z w, w v", []int{1, 3}, "", "0:scan 2:scan"},
	} {
		var edges []pattern.Edge
		for _, pair := range strings.Split(tc.edges, ",") {
			ends := strings.Fields(pair)
			edges = append(edges, pattern.Edge{From: ends[0], To: ends[1]})
		}
		var skip []bool
		if tc.skip != nil {
			skip = make([]bool, len(edges))
			for _, ei := range tc.skip {
				skip[ei] = true
			}
		}
		bound, vars := map[string]bool{}, map[string]bool{} // vars: what bound must hold on return
		for _, z := range strings.Fields(tc.pre) {
			bound[z], vars[z] = true, true
		}
		for ei, e := range edges {
			vars[e.From] = vars[e.From] || !slices.Contains(tc.skip, ei)
			vars[e.To] = vars[e.To] || !slices.Contains(tc.skip, ei)
		}
		var got []string
		var order []int
		for _, st := range JoinOrder(edges, skip, bound) {
			got = append(got, fmt.Sprintf("%d:%s", st.Edge, st.Mode))
			order = append(order, st.Edge)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s: order %q, want %q", tc.name, strings.Join(got, " "), tc.want)
		}
		for z, want := range vars {
			if bound[z] != want {
				t.Errorf("%s: %s bound=%v on return, want %v", tc.name, z, bound[z], want)
			}
		}
		if tc.skip != nil {
			continue
		}
		// PlanJoin, the bounded engine's leaf order, is the same rule.
		pre := map[string]int{}
		for _, z := range strings.Fields(tc.pre) {
			pre[z] = 0
		}
		if pj := PlanJoin(&pattern.Graph{Edges: edges}, nil, pre); !slices.Equal(pj, order) {
			t.Errorf("%s: PlanJoin %v, want %v", tc.name, pj, order)
		}
	}
}

package graph

// This file provides the brute-force path machinery used by the reference
// oracles in tests: explicit enumeration of path labels between node pairs.

// PathWordsBetween returns the distinct words of length ≤ maxLen labelling a
// path from u to v, in length-then-lexicographic order.
func (d *DB) PathWordsBetween(u, v int, maxLen int) []string {
	type cfg struct {
		word  string
		nodes map[int]bool
	}
	level := []cfg{{"", map[int]bool{u: true}}}
	var out []string
	if u == v {
		out = append(out, "")
	}
	for length := 1; length <= maxLen; length++ {
		var next []cfg
		byWord := map[string]int{}
		for _, c := range level {
			for p := range c.nodes {
				for _, e := range d.Out(p) {
					w := c.word + string(e.Label)
					i, ok := byWord[w]
					if !ok {
						i = len(next)
						byWord[w] = i
						next = append(next, cfg{w, map[int]bool{}})
					}
					next[i].nodes[e.To] = true
				}
			}
		}
		for _, c := range next {
			if c.nodes[v] {
				out = append(out, c.word)
			}
		}
		level = next
	}
	return out
}

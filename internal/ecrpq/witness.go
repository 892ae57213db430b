package ecrpq

import (
	"encoding/binary"
	"fmt"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Witness is one matching morphism together with a tuple of matching words
// (§2.3): NodeOf assigns database nodes to the pattern's node variables and
// Words[i] is the label of the path matched by edge i. The paper's §8
// discusses extracting paths from the evaluation automata; this is the
// deterministic counterpart for one match.
type Witness struct {
	NodeOf map[string]int
	Words  []string
}

// FindWitness searches for a matching morphism of q on db (extending the
// pre-bound output tuple t if t is non-nil) and reconstructs a tuple of
// matching words. It returns false if no match exists. The search is the
// join every evaluation runs (the planner's order over the atoms
// minimization kept, first match wins), compiled to bind every variable;
// an atom minimization dropped shares its endpoints with a kept atom whose
// language it contains, so its word is reconstructed like any other.
func FindWitness(q *Query, db *graph.DB, t pattern.Tuple) (*Witness, bool, error) {
	ev, err := newEvaluator(q, db, Options{}, true)
	if err != nil {
		return nil, false, err
	}
	var pre map[string]int
	if t != nil {
		var ok bool
		if pre, ok, err = preBind(q, db, t); err != nil || !ok {
			return nil, false, err
		}
	}
	p := ev.compile(pre, true)
	var w *Witness
	p.run(nil, func(a []int32, _ int) bool {
		w = &Witness{NodeOf: map[string]int{}, Words: make([]string, len(q.Pattern.Edges))}
		for s, z := range p.vars {
			w.NodeOf[z] = int(a[s])
		}
		return false
	})
	if w == nil {
		return nil, false, nil
	}
	// Per-group word reconstruction (components share the search).
	done := make([]bool, len(q.Pattern.Edges))
	for gi, g := range q.Groups {
		src, tgt := make([]int, len(g.Edges)), make([]int, len(g.Edges))
		for j, ei := range g.Edges {
			src[j] = w.NodeOf[q.Pattern.Edges[ei].From]
			tgt[j] = w.NodeOf[q.Pattern.Edges[ei].To]
		}
		words, err := ev.groupWitness(gi, src, tgt)
		if err != nil {
			return nil, false, err
		}
		for j, ei := range g.Edges {
			w.Words[ei] = words[j]
			done[ei] = true
		}
	}
	for ei, e := range q.Pattern.Edges {
		if done[ei] {
			continue
		}
		word, ok := ev.edgeWitness(ei, w.NodeOf[e.From], w.NodeOf[e.To])
		if !ok {
			return nil, false, fmt.Errorf("ecrpq: internal error: matched edge %d has no witness word", ei)
		}
		w.Words[ei] = word
	}
	return w, true, nil
}

// edgeWitness reconstructs a shortest word labelling a path u→v that
// matches edge ei's regex, via parent-tracked BFS over (node, NFA-state).
func (ev *evaluator) edgeWitness(ei, u, v int) (string, bool) {
	m := ev.atoms[ei].ent.nfa
	type cfg struct{ node, state int }
	type parentInfo struct {
		prev cfg
		sym  rune
		has  bool
	}
	parent := map[cfg]parentInfo{}
	var queue []cfg
	push := func(c cfg, from cfg, sym rune, has bool) {
		if _, seen := parent[c]; seen {
			return
		}
		parent[c] = parentInfo{prev: from, sym: sym, has: has}
		queue = append(queue, c)
	}
	for _, s := range m.EpsClosure(m.Start()) {
		push(cfg{u, s}, cfg{}, 0, false)
	}
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		if c.node == v && m.IsFinal(c.state) {
			// reconstruct
			var rev []rune
			cur := c
			for {
				p := parent[cur]
				if !p.has {
					break
				}
				if p.sym != 0 {
					rev = append(rev, p.sym)
				}
				cur = p.prev
			}
			out := make([]rune, len(rev))
			for j := range rev {
				out[j] = rev[len(rev)-1-j]
			}
			return string(out), true
		}
		// ε-moves in the NFA
		for _, tr := range m.Transitions(c.state) {
			if tr.Label == automata.Epsilon {
				push(cfg{c.node, tr.To}, c, 0, true)
			}
		}
		// synchronized symbol moves
		for _, e := range ev.db.Out(c.node) {
			for _, tr := range m.Transitions(c.state) {
				if tr.Label == int32(e.Label) {
					push(cfg{e.To, tr.To}, c, e.Label, true)
				}
			}
		}
	}
	return "", false
}

// groupWitness reconstructs per-component matching words for a group
// between the given source and target tuples, by a parent-tracked re-run of
// the synchronized product.
func (ev *evaluator) groupWitness(gi int, src, tgt []int) ([]string, error) {
	g := ev.q.Groups[gi]
	switch rel := g.Rel.(type) {
	case *Equality:
		w, ok := ev.equalityWitness(g, src, tgt)
		if !ok {
			return nil, fmt.Errorf("ecrpq: internal error: no equality witness for group %d", gi)
		}
		words := make([]string, len(g.Edges))
		for j := range words {
			words[j] = w
		}
		return words, nil
	case *NFARelation:
		words, ok := ev.nfaRelWitness(g, rel, src, tgt)
		if !ok {
			return nil, fmt.Errorf("ecrpq: internal error: no relation witness for group %d", gi)
		}
		return words, nil
	}
	return nil, fmt.Errorf("ecrpq: unknown relation kind")
}

// equalityWitness finds one shared word for an equality group between the
// given source and target tuples.
func (ev *evaluator) equalityWitness(g Group, src, tgt []int) (string, bool) {
	s := len(g.Edges)
	ms := make([]*automata.NFA, s)
	for i, ei := range g.Edges {
		ms[i] = ev.atoms[ei].ent.nfa
	}
	type node struct {
		nodes []int
		sets  []automata.StateSet
	}
	start := node{nodes: src, sets: make([]automata.StateSet, s)}
	for i, m := range ms {
		start.sets[i] = m.EpsClosure(m.Start())
		if len(start.sets[i]) == 0 {
			return "", false
		}
	}
	keyOf := func(n node) string {
		ks := make([]string, s)
		for i, set := range n.sets {
			ks[i] = set.Key()
		}
		return prodKey(n.nodes, ks, "")
	}
	type pinfo struct {
		prevKey string
		sym     rune
		has     bool
	}
	parent := map[string]pinfo{}
	queue := []node{start}
	parent[keyOf(start)] = pinfo{}
	accept := func(n node) bool {
		for i, m := range ms {
			if n.nodes[i] != tgt[i] || !m.ContainsFinal(n.sets[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		ck := keyOf(cur)
		if accept(cur) {
			var rev []rune
			k := ck
			for {
				p := parent[k]
				if !p.has {
					break
				}
				rev = append(rev, p.sym)
				k = p.prevKey
			}
			out := make([]rune, len(rev))
			for j := range rev {
				out[j] = rev[len(rev)-1-j]
			}
			return string(out), true
		}
		for _, sym := range ev.sigma {
			nextSets := make([]automata.StateSet, s)
			opts := make([][]int, s)
			ok := true
			for j, m := range ms {
				nextSets[j] = m.Step(cur.sets[j], int32(sym))
				if len(nextSets[j]) == 0 {
					ok = false
					break
				}
				for _, e := range ev.db.Out(cur.nodes[j]) {
					if e.Label == sym {
						opts[j] = append(opts[j], e.To)
					}
				}
				if len(opts[j]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			productNodes(opts, func(nodes []int) {
				n := node{nodes: append([]int(nil), nodes...), sets: nextSets}
				k := keyOf(n)
				if _, seen := parent[k]; !seen {
					parent[k] = pinfo{prevKey: ck, sym: sym, has: true}
					queue = append(queue, n)
				}
			})
		}
	}
	return "", false
}

// nfaRelWitness finds per-component words for a general relation group.
func (ev *evaluator) nfaRelWitness(g Group, rel *NFARelation, src, tgt []int) ([]string, bool) {
	s := len(g.Edges)
	ms := make([]*automata.NFA, s)
	for i, ei := range g.Edges {
		ms[i] = ev.atoms[ei].ent.nfa
	}
	type node struct {
		nodes []int
		sets  []automata.StateSet
		rset  automata.StateSet
		mask  uint64
	}
	start := node{nodes: src, sets: make([]automata.StateSet, s), rset: rel.M.EpsClosure(rel.M.Start())}
	for i, m := range ms {
		start.sets[i] = m.EpsClosure(m.Start())
		if len(start.sets[i]) == 0 {
			return nil, false
		}
	}
	keyOf := func(n node) string {
		ks := make([]string, s)
		for i, set := range n.sets {
			ks[i] = set.Key()
		}
		return prodKey(n.nodes, ks, fmt.Sprint(n.rset.Key(), n.mask))
	}
	type pinfo struct {
		prevKey string
		tuple   []rune
		has     bool
	}
	parent := map[string]pinfo{}
	queue := []node{start}
	parent[keyOf(start)] = pinfo{}
	labels := rel.M.Labels()
	accept := func(n node) bool {
		if !rel.M.ContainsFinal(n.rset) {
			return false
		}
		for i, m := range ms {
			if n.nodes[i] != tgt[i] {
				return false
			}
			if n.mask&(1<<uint(i)) == 0 && !m.ContainsFinal(n.sets[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		ck := keyOf(cur)
		if accept(cur) {
			words := make([][]rune, s)
			k := ck
			var chain []pinfo
			for {
				p := parent[k]
				if !p.has {
					break
				}
				chain = append(chain, p)
				k = p.prevKey
			}
			for j := len(chain) - 1; j >= 0; j-- {
				for c, sym := range chain[j].tuple {
					if sym != Bottom {
						words[c] = append(words[c], sym)
					}
				}
			}
			out := make([]string, s)
			for c := range out {
				out[c] = string(words[c])
			}
			return out, true
		}
		for _, code := range labels {
			rnext := rel.M.Step(cur.rset, code)
			if len(rnext) == 0 {
				continue
			}
			tuple := rel.codec.decode(code)
			nextSets := make([]automata.StateSet, s)
			opts := make([][]int, s)
			mask := cur.mask
			ok := true
			for j := range tuple {
				if tuple[j] == Bottom {
					if mask&(1<<uint(j)) == 0 {
						if !ms[j].ContainsFinal(cur.sets[j]) {
							ok = false
							break
						}
						mask |= 1 << uint(j)
					}
					nextSets[j] = cur.sets[j]
					opts[j] = []int{cur.nodes[j]}
					continue
				}
				if mask&(1<<uint(j)) != 0 {
					ok = false
					break
				}
				nextSets[j] = ms[j].Step(cur.sets[j], int32(tuple[j]))
				if len(nextSets[j]) == 0 {
					ok = false
					break
				}
				for _, e := range ev.db.Out(cur.nodes[j]) {
					if e.Label == tuple[j] {
						opts[j] = append(opts[j], e.To)
					}
				}
				if len(opts[j]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			productNodes(opts, func(nodes []int) {
				n := node{nodes: append([]int(nil), nodes...), sets: nextSets, rset: rnext, mask: mask}
				k := keyOf(n)
				if _, seen := parent[k]; !seen {
					parent[k] = pinfo{prevKey: ck, tuple: append([]rune(nil), tuple...), has: true}
					queue = append(queue, n)
				}
			})
		}
	}
	return nil, false
}

// productNodes enumerates the cartesian product of node options.
func productNodes(opts [][]int, f func([]int)) {
	nodes := make([]int, len(opts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(opts) {
			f(nodes)
			return
		}
		for _, v := range opts[i] {
			nodes[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// prodKey encodes a configuration of the witness product searches: the node
// tuple, the per-component state-set keys and a relation-specific suffix.
func prodKey(nodes []int, setKeys []string, extra string) string {
	var b []byte
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	for _, k := range setKeys {
		b = append(b, 0xff)
		b = append(b, k...)
	}
	b = append(b, 0xfe)
	b = append(b, extra...)
	return string(b)
}

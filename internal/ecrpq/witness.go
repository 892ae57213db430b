package ecrpq

import (
	"fmt"
	"slices"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Witness is one matching morphism together with a tuple of matching words
// (§2.3): NodeOf assigns database nodes to the pattern's node variables and
// Words[i] is the label of the path matched by edge i. The paper's §8
// discusses extracting paths from the evaluation automata; this is the
// deterministic counterpart for one match. A witness is the first match of a
// union (WitnessUnion), the join compiled to bind every variable, with its
// words read off the leaf that matched (Leaf.witness).
type Witness struct {
	NodeOf map[string]int
	Words  []string
}

// FindWitness searches for a matching morphism of q on db (extending the
// pre-bound output tuple t if t is non-nil) and reconstructs a tuple of
// matching words: PreBind, then WitnessUnion over the union of q alone. It
// returns false if no match exists, and engine.ErrCanceled with it if the
// budget ended the search before one was found.
func FindWitness(q *Query, db *graph.DB, t pattern.Tuple, o Options) (*Witness, bool, error) {
	var pre map[string]int
	if t != nil {
		var ok bool
		var err error
		if pre, ok, err = PreBind(q.Pattern.Out, db, t); err != nil || !ok {
			return nil, false, err
		}
	}
	_, w, err := WitnessUnion(MembersOf(db, q), pre, o)
	return w, w != nil, err
}

// witness reads the witness of the match s stands on, the search of the
// leaf's join under BindAll: the node of every variable off the search's
// assignment, and the words off the product search of group.go, run once
// more per group between the matched endpoints with its parent columns on;
// an edge outside every group — every edge of the pattern form — is the
// equality group of arity 1 over the atom on it. Under unit cost every word
// is a shortest one.
func (l *Leaf) witness(s *search) (*Witness, error) {
	ev := &l.ev
	edges := ev.q.Pattern.Edges
	w := &Witness{NodeOf: map[string]int{}, Words: make([]string, len(edges))}
	for i, z := range l.plans[0].vars {
		w.NodeOf[z] = int(s.a[i])
	}
	// words reads the words of the edges a group ties together off its search.
	words := func(sc *groupScratch, eis []int) error {
		src, tgt := make([]int32, len(eis)), make([]int32, len(eis))
		for j, ei := range eis {
			src[j], tgt[j] = int32(w.NodeOf[edges[ei].From]), int32(w.NodeOf[edges[ei].To])
		}
		ws, ok := sc.witness(ev, src, tgt)
		if !ok {
			if err := ev.bud.Err(); err != nil {
				return err
			}
			return fmt.Errorf("ecrpq: internal error: matched edges %v have no witness words", eis)
		}
		for j, ei := range eis {
			w.Words[ei] = ws[j]
		}
		return nil
	}
	for gi, g := range ev.q.Groups {
		if err := words(ev.gscratch[gi], g.Edges); err != nil {
			return nil, err
		}
	}
	for ei := range edges {
		if len(ev.inGroup) == 0 || !ev.inGroup[ei] {
			alone := Group{Edges: []int{ei}, Rel: &Equality{N: 1}}
			if err := words(newGroupScratch(ev, alone), alone.Edges); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// witness runs the group's product search from src for the one end tuple tgt
// and returns, per component, the word consumed on the way to the first —
// cheapest — accepting configuration over tgt, read back along the parent
// column. ok is false when there is none or the budget cut the search.
func (sc *groupScratch) witness(ev *evaluator, src, tgt []int32) (words []string, ok bool) {
	sc.want, sc.hit = tgt, -1
	sc.search(ev, src)
	row, parent, via := sc.hit, sc.parent, sc.via
	sc.want, sc.parent, sc.via = nil, nil, nil
	if row < 0 {
		return nil, false
	}
	syms := make([][]rune, sc.s) // per component, last symbol first
	for ; parent[row] >= 0; row = int(parent[row]) {
		if sc.rel == nil {
			syms[0] = append(syms[0], ev.ix.Sym(via[row])) // the one word every component reads
			continue
		}
		for i, r := range sc.rel.codec.decode(via[row]) {
			if r != Bottom {
				syms[i] = append(syms[i], r)
			}
		}
	}
	words = make([]string, sc.s)
	for i := range words {
		if sc.rel == nil && i > 0 {
			words[i] = words[0]
			continue
		}
		slices.Reverse(syms[i])
		words[i] = string(syms[i])
	}
	return words, true
}

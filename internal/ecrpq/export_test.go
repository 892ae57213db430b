package ecrpq

import "cxrpq/internal/graph"

// CompiledOrder returns the edges of q's atom steps in the order
// evaluator.compile places them with nothing pre-bound: the order every
// evaluation of q on db backtracks in.
func CompiledOrder(q *Query, db *graph.DB) ([]int, error) {
	ev, err := newEvaluator(q, db, Options{}, true)
	if err != nil {
		return nil, err
	}
	var order []int
	for _, st := range ev.compile(nil, false).steps {
		for ei := range ev.atoms {
			if st.src == &ev.atoms[ei] {
				order = append(order, ei)
			}
		}
	}
	return order, nil
}

// stream runs the join of ev's query with the variables of pre bound, as a
// leaf joins it (Leaf.join), yielding every row.
func (ev *evaluator) stream(pre map[string]int, yield StreamFunc) {
	var s search
	ev.join(ev.compile(pre, false), &s)
	s.drain(yield)
}

// stream runs the leaf's join, yielding every row.
func (l *Leaf) stream(yield StreamFunc) {
	var s search
	l.join(&s)
	s.drain(yield)
}

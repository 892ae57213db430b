package ecrpq

import "cxrpq/internal/graph"

// newEvaluator binds q to db under o, as a query-form leaf does (queryLeaf).
func newEvaluator(q *Query, db *graph.DB, o Options, lazy bool) (*evaluator, error) {
	ev := &evaluator{}
	if err := ev.init(q, db, o, lazy); err != nil {
		return nil, err
	}
	return ev, nil
}

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

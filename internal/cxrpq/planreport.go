package cxrpq

import (
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/xregex"
)

// This file is the explain surface of the join order: the order a Session's
// joins backtrack in for the query's conjunctive skeleton, rendered with
// variable names. The order is ecrpq.JoinOrder over the query's edges with
// nothing pre-bound, a function of the pattern alone, so the report needs
// neither the database's statistics nor a compiled label.

// PlanStep is one entry of a PlanReport: the pattern edge placed at this
// plan position, how the join visits it, and which of its endpoints the rest
// of the query reads (pattern.Graph.Reads; short of "pairs" an unranked
// evaluation computes a support, not the pairs).
type PlanStep struct {
	Edge  int    `json:"edge"` // index into the query pattern's edges
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label"` // the edge's xregex (original form)
	Mode  string `json:"mode"`  // check | expand | expand-rev | scan
	Reads string `json:"reads"` // pairs | from | to | none: the endpoints something else reads
}

// PlanReport is the humanly (and machine) readable join order of a prepared
// query bound to a database. Every join backtracks in that order.
type PlanReport struct {
	Fragment string     `json:"fragment"`
	Revision uint64     `json:"revision"`
	Steps    []PlanStep `json:"steps"`
}

// PlanReport returns the join order the session's evaluations run over the
// query's atoms at the current database revision. It is a debug/
// observability surface (the cxrpq-serve /plan endpoint serves it); the
// bounded engine's leaf joins take the same order.
func (s *Session) PlanReport() (*PlanReport, error) {
	q := s.plan.q
	rep := &PlanReport{Fragment: s.plan.fragment, Revision: s.db.Revision()}
	readFrom, readTo := q.Pattern.Reads(nil)
	for _, st := range ecrpq.JoinOrder(q.Pattern.Edges, nil, map[string]bool{}) {
		ei := st.Edge
		e := q.Pattern.Edges[ei]
		reads := "pairs"
		switch {
		case !readFrom[ei] && !readTo[ei]:
			reads = "none"
		case !readTo[ei]:
			reads = "from"
		case !readFrom[ei]:
			reads = "to"
		}
		rep.Steps = append(rep.Steps, PlanStep{
			Edge:  ei,
			From:  e.From,
			To:    e.To,
			Label: xregex.String(e.Label),
			Mode:  st.Mode,
			Reads: reads,
		})
	}
	return rep, nil
}

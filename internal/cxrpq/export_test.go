package cxrpq

import (
	"cmp"
	"maps"
	"slices"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// Hooks for the external test package, which is where the differential
// suites live (they need internal/workload, which imports this package).

// StreamDrained is the reference the ranked stream is held to, built here
// and sharing nothing with it: the request's members searched one after the
// other (ecrpq.UnionRows, ranked) to the end, each tuple kept at the
// minimum cost it is found at, ordered by cost and then lexicographically,
// and served through a cursor over those rows with opts' Limit. A budget
// that cuts the drain leaves the cursor Truncated.
func (s *Session) StreamDrained(opts StreamOptions) (*Cursor, error) {
	bounded, k, err := s.semantics(opts.Semantics, opts.K)
	if err != nil {
		return nil, err
	}
	bud := engine.NewBudget(opts.Ctx, opts.Deadline)
	ms, _, err := s.source(ecrpq.Atoms(s.db), bounded, k, bud)
	if err != nil {
		return nil, err
	}
	src := ecrpq.NewUnionRows(ms, ecrpq.Options{Budget: bud, Ranked: true, Weight: opts.Weight})
	best := map[string]Row{}
	for row, cost, ok := src.Next(); ok; row, cost, ok = src.Next() {
		t := make(pattern.Tuple, len(row))
		for i, v := range row {
			t[i] = int(v)
		}
		if have, seen := best[t.Key()]; !seen || cost < have.Cost {
			best[t.Key()] = Row{Tuple: t, Cost: cost}
		}
	}
	rows := slices.SortedFunc(maps.Values(best), func(a, b Row) int {
		return cmp.Or(cmp.Compare(a.Cost, b.Cost), slices.Compare(a.Tuple, b.Tuple))
	})
	c := &Cursor{bud: bud, end: opts.Limit, err: src.Err(), truncated: bud.Err() != nil}
	if len(rows) > 0 {
		c.own = pattern.Rows{Arity: len(rows[0].Tuple), N: len(rows)}
	}
	for _, r := range rows {
		for _, v := range r.Tuple {
			c.own.Data = append(c.own.Data, int32(v))
		}
		c.own.Costs = append(c.own.Costs, int32(r.Cost))
	}
	return c, nil
}

// PageCursor opens the cursor Stream opens over an unranked enumeration that
// no cached answer serves, with next as the enumeration — its next row, ok
// false at the end — and limit as the Limit, under no budget.
func PageCursor(next func() (row []int32, ok bool), limit int) *Cursor {
	return &Cursor{end: limit, open: func() (*pull, error) { return &pull{src: funcRows(next)}, nil }}
}

type funcRows func() ([]int32, bool)

func (f funcRows) Next() ([]int32, int, bool) {
	row, ok := f()
	return row, 0, ok
}

func (f funcRows) Err() error { return nil }

// RankedPrefix returns the ranked prefix the atom store of the session's
// database holds for the dispatch of opts, and whether it is done; no rows
// when there is none. Reading it counts no answer hit.
func (s *Session) RankedPrefix(opts StreamOptions) (pattern.Rows, bool) {
	_, k, err := s.semantics(opts.Semantics, opts.K)
	v, ok := ecrpq.Atoms(s.db).Answer(s.key("ranked", k, nil))
	if err != nil || !ok {
		return pattern.Rows{}, false
	}
	return v.(*rankedPrefix).view()
}

// CandidateWalk is one bounded run's view of the candidate enumeration: the
// ≺-topological variable order, what the plan knows about each variable, and
// the candidate list of a variable under a prefix assignment.
type CandidateWalk struct{ e *boundedEngine }

// NewCandidateWalk binds q's bounded plan to db for image bound k.
func NewCandidateWalk(q *Query, db *graph.DB, k int) (*CandidateWalk, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	sess := p.Bind(db)
	e, err := sess.boundedRun(ecrpq.Atoms(db), k, nil)
	if err != nil {
		return nil, err
	}
	return &CandidateWalk{e}, nil
}

func (w *CandidateWalk) Vars() []string { return w.e.p.vars }

func (w *CandidateWalk) Sigma() []rune { return w.e.sigma }

func (w *CandidateWalk) DefBodies(x string) []xregex.Node { return w.e.p.defBodies[x] }

func (w *CandidateWalk) Referenced(x string) bool { return w.e.p.refAny[x] }

func (w *CandidateWalk) Candidates(x string, prefix map[string]string) ([]string, error) {
	return w.e.candidates(x, prefix)
}

// PathVerdicts returns the path-existence verdicts stored for the session's
// database.
func (s *Session) PathVerdicts() map[string]bool {
	return ecrpq.Atoms(s.db).Verdicts()
}

// EvalBoundedBoolPre decides D |=^≤k q with the node variables of pre
// pre-bound — any of them, where bounded check binds exactly the output
// variables.
func EvalBoundedBoolPre(q *Query, db *graph.DB, k int, pre map[string]int) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	sess := p.Bind(db)
	e, err := sess.boundedRun(ecrpq.Atoms(db), k, nil)
	if err != nil {
		return false, err
	}
	return ecrpq.ExistsUnion(e.members(), pre, ecrpq.Options{})
}

// Next returns the next row, fetched alone.
func (c *Cursor) Next() (Row, bool) {
	p := c.FetchRows(1)
	if p.N == 0 {
		return Row{}, false
	}
	return rowsOf(p)[0], true
}

// DB returns the bound database.
func (s *Session) DB() *graph.DB { return s.db }

// Plan returns the prepared plan the session evaluates.
func (s *Session) Plan() *Plan { return s.plan }

// Query returns the query the plan was prepared from.
func (p *Plan) Query() *Query { return p.q }

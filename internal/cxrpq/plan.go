package cxrpq

import (
	"fmt"
	"slices"
	"sync"
	"weak"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// This file is the compile-once half of the prepared-query subsystem.
// Prepare(q) validates q and classifies its fragment into an immutable Plan,
// which holds what its evaluation paths need of the query alone: the
// bounded-evaluation schedule (boundedPlan, built on first use) and each
// component's branch count, the radix in which member i of the union of
// ECRPQ^er a vstar-free query is (Lemma 7 / Lemma 13) is decoded whenever a
// union driver asks for it. Binding a Plan to a database (Plan.Bind,
// session.go) yields a Session over the database's atom store, whose Do and
// Stream are the only ways to run the query; the one-shot Do (eval.go)
// prepares and binds per call.

// member is one member of the plan's union: the translation whose Query is
// the ECRPQ^er the evaluators run and whose bookkeeping, with the Step 3
// replacement map repl, takes a witness of that query back to the CXRPQ
// (buildExplanation) — or the error the translation failed with (kept, not
// raised, because a match of another member wins over it).
type member struct {
	tr   *SimpleTranslation
	repl map[string][]string
	err  error
}

// Plan is an immutable prepared CXRPQ: the validated query, its fragment
// classification, the branch count of each component, and the (lazily
// materialized, built at most once) bounded-evaluation schedule. A Plan
// holds no database state — bind it to a graph.DB with Bind to evaluate —
// and is safe for concurrent use by any number of Sessions.
type Plan struct {
	q        *Query
	c        CXRE
	fragment string
	sigma    []rune // the query's alphabet; a bounded run merges it with the database's

	// self names the plan in the keys of its answers in an atom store
	// (resultKey): weak, so that no store keeps a plan alive.
	self weak.Pointer[Plan]

	boundedOnce sync.Once
	bounded     *boundedPlan // any query has ≤k / log semantics
	boundedErr  error

	// The union of ECRPQ^er a vstar-free query is: the branch count of each
	// component (member decodes in their radix) and the one member of a query
	// without string variables — or the error that it is not vstar-free.
	counts   []int
	own      member
	unionErr error
}

// Prepare validates q and compiles it into a reusable Plan: the fragment and
// the branch counts here, once, and the bounded schedule on first use of its
// path, so union plans never pay for it.
func Prepare(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{q: q, c: q.CXRE(), fragment: q.Fragment()}
	p.sigma, p.self = p.c.Alphabet(), weak.Make(p)
	if !p.c.IsVStarFree() {
		p.unionErr = fmt.Errorf("cxrpq: %s is not vstar-free; evaluate it under the bounded (CXRPQ^≤k) or log semantics", p.fragment)
		return p, nil
	}
	p.counts = make([]int, len(p.c))
	for i, n := range p.c {
		p.counts[i], _ = xregex.Branches(n) // vstar-free: no error
	}
	if !slices.ContainsFunc(p.c, xregex.HasVars) {
		p.own = ownMember(q.Pattern, nil)
	}
	return p, nil
}

// boundedPlanFor returns the bounded-evaluation schedule, built once per
// Plan on first use.
func (p *Plan) boundedPlanFor() (*boundedPlan, error) {
	p.boundedOnce.Do(func() {
		p.bounded, p.boundedErr = planBounded(p.q)
	})
	return p.bounded, p.boundedErr
}

// MustPrepare is Prepare but panics on error.
func MustPrepare(q *Query) *Plan {
	p, err := Prepare(q)
	if err != nil {
		panic(err)
	}
	return p
}

// PrepareSrc parses and prepares the textual query format in one step.
func PrepareSrc(src string) (*Plan, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Prepare(q)
}

// Fragment returns the human-readable name of the smallest syntactic
// fragment containing the query (classified once at Prepare).
func (p *Plan) Fragment() string { return p.fragment }

// members is the plan's one member source: member i, as an ECRPQ^er, of the
// union of ECRPQ^er the query is equivalent to — one per Lemma 7 branch
// combination, decoded and translated when a driver asks for it (member) —
// or the error its translation failed with. Session.source compiles it over
// its database (ecrpq.QueryMembers). A CRPQ is the union of one combination
// without string variables, its own pattern; a simple query, of one
// combination. A plan that is not vstar-free has no such union (unionErr).
func (p *Plan) members(i int) (*ecrpq.Query, bool, error) {
	m, ok := p.member(i)
	if !ok || m.err != nil {
		return nil, ok, m.err
	}
	return m.tr.Query, true, nil
}

// member decodes and translates member i of the union: the branch
// combination that picks, for each component, its branch (xregex.Branch) at
// its digit of i in the mixed radix of the components' branch counts, the
// last component varying fastest (comboMember). A query without string
// variables is its own member, built at Prepare. ok is false past the last
// combination.
func (p *Plan) member(i int) (member, bool) {
	rest := i // what is left of i past the last digit: positive past the last combination
	for _, n := range p.counts {
		rest /= n
	}
	switch {
	case i < 0 || rest > 0 || p.unionErr != nil:
		return member{}, false
	case p.own.tr != nil:
		return p.own, true
	}
	combo := make(CXRE, len(p.counts))
	for c := len(combo) - 1; c >= 0; c-- {
		combo[c], _ = xregex.Branch(p.c[c], i%p.counts[c]) // Prepare counted it: vstar-free, the digit in range
		i /= p.counts[c]
	}
	return p.comboMember(combo), true
}

// ownMember is a pattern without string variables as its own member, each
// edge its own translated edge, with forcedEps the variables whose images are ε.
func ownMember(g *pattern.Graph, forcedEps map[string]bool) member {
	split, at := make([][]int, len(g.Edges)), make([]int, len(g.Edges))
	for c := range split {
		at[c], split[c] = c, at[c:c+1]
	}
	return member{tr: &SimpleTranslation{Query: &ecrpq.Query{Pattern: g}, EdgeSplit: split, ForcedEps: forcedEps}}
}

// comboMember translates one variable-simple branch combination, with the
// images of the variables the query defines and it does not forced to ε. A
// combination without string variables is its own member, the pattern with
// its branches as labels; any other is normalized by Step 3 (which rewrites
// a clone) and translated by Lemma 3.
func (p *Plan) comboMember(combo CXRE) member {
	var m member
	labels, vars := combo, slices.ContainsFunc(combo, xregex.HasVars)
	if vars {
		if labels, m.repl, m.err = step3WithMap(combo); m.err != nil {
			return m
		}
	}
	g := &pattern.Graph{Out: p.q.Pattern.Out, Edges: slices.Clone(p.q.Pattern.Edges)}
	for c := range g.Edges {
		g.Edges[c].Label = labels[c]
	}
	forcedEps := p.c.DefinedVars()
	for v := range labels.DefinedVars() {
		delete(forcedEps, v)
	}
	if !vars {
		return ownMember(g, forcedEps)
	}
	m.tr, m.err = simpleToECRPQerInfo(&Query{Pattern: g}, forcedEps)
	return m
}

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
// which builds, each once and on first use, what its evaluation paths need
// of the query alone: the bounded-evaluation schedule (boundedPlan) and the
// branch lists of the union of ECRPQ^er a vstar-free query is (Lemma 7 /
// Lemma 13), from which member i is decoded and translated whenever a union
// driver asks for it. Binding a Plan to a database (Plan.Bind, session.go)
// yields a Session over the database's atom store, whose Do and Stream are
// the only ways to run the query; the one-shot Do (eval.go) prepares and
// binds per call.

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
// classification, and the (lazily materialized, built at most once) pieces
// each evaluation path needs — the bounded-evaluation schedule and the
// branch lists of the vstar-free union. A Plan holds no database state —
// bind it to a graph.DB with Bind to evaluate — and is safe for concurrent
// use by any number of Sessions.
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

	// The union of ECRPQ^er a vstar-free query is evaluated as, built on
	// first use: the branches of each component and the variables the query
	// defines, from which member i is decoded (member) — or the error that
	// the query is not vstar-free.
	branchOnce sync.Once
	branches   [][]xregex.Node
	defined    map[string]bool
	branchErr  error
}

// Prepare validates q and compiles it into a reusable Plan. The fragment
// classification happens here, once; the per-fragment machinery (bounded
// schedule, branch lists) materializes on first use of its path, so union
// plans never pay for the bounded schedule and vice versa.
func Prepare(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{q: q, c: q.CXRE(), fragment: q.Fragment()}
	p.sigma, p.self = p.c.Alphabet(), weak.Make(p)
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

// members returns the plan's one member source: the queries, by index, of
// the union of ECRPQ^er the query is equivalent to, which Session.source
// compiles over its database (ecrpq.QueryMembers), one per Lemma 7 branch
// combination, decoded and translated when a driver asks for it (member). A
// CRPQ is the union of one combination without string variables, its own
// pattern; a simple query, of one combination. A plan that is not
// vstar-free has no such union.
func (p *Plan) members() (func(i int) (*ecrpq.Query, bool, error), error) {
	p.branchOnce.Do(func() {
		if !p.c.IsVStarFree() {
			p.branchErr = fmt.Errorf("cxrpq: %s is not vstar-free; evaluate it under the bounded (CXRPQ^≤k) or log semantics", p.fragment)
			return
		}
		p.branches, p.branchErr = expandBranches(p.c)
		p.defined = p.c.DefinedVars()
	})
	if p.branchErr != nil {
		return nil, p.branchErr
	}
	return p.query, nil
}

// query is member i as an ECRPQ^er, or the error its translation failed with.
func (p *Plan) query(i int) (*ecrpq.Query, bool, error) {
	m, ok := p.member(i)
	if !ok || m.err != nil {
		return nil, ok, m.err
	}
	return m.tr.Query, true, nil
}

// member decodes and translates member i of the union, which members has
// expanded: the branch combination that picks, for each component, the
// branch at its digit of i in the mixed radix of the components' branch
// counts, the last component varying fastest. A combination without string
// variables is its own member, the pattern with its branches as labels —
// the query's own pattern for a CRPQ — with every variable the query
// defines forced to ε; any other is normalized by Step 3 and translated by
// Lemma 3 (comboMember). ok is false past the last combination.
func (p *Plan) member(i int) (member, bool) {
	rest := i // what is left of i past the last digit: positive past the last combination
	for _, bs := range p.branches {
		rest /= len(bs)
	}
	if i < 0 || rest > 0 {
		return member{}, false
	}
	g := p.q.Pattern
	combo, vars, own := make(CXRE, len(p.branches)), false, true
	for c := len(combo) - 1; c >= 0; c-- {
		bs := p.branches[c]
		combo[c] = bs[i%len(bs)]
		i /= len(bs)
		vars = vars || xregex.HasVars(combo[c])
		own = own && combo[c] == g.Edges[c].Label
	}
	if vars {
		return p.comboMember(combo), true
	}
	if !own {
		g = &pattern.Graph{Out: g.Out, Edges: slices.Clone(g.Edges)}
		for c := range g.Edges {
			g.Edges[c].Label = combo[c]
		}
	}
	split, at := make([][]int, len(combo)), make([]int, len(combo))
	for c := range split {
		at[c], split[c] = c, at[c:c+1]
	}
	return member{tr: &SimpleTranslation{Query: &ecrpq.Query{Pattern: g}, EdgeSplit: split, ForcedEps: p.defined}}, true
}

// comboMember normalizes one variable-simple branch combination, whose nodes
// the branch lists share, via Step 3 (which rewrites a clone) and translates
// it into an ECRPQ^er, with images of the query's defined but branch-dropped
// variables forced to ε.
func (p *Plan) comboMember(combo CXRE) member {
	simple, repl, err := step3WithMap(combo)
	if err != nil {
		return member{err: err}
	}
	g := &pattern.Graph{Out: append([]string(nil), p.q.Pattern.Out...)}
	for i, e := range p.q.Pattern.Edges {
		g.Edges = append(g.Edges, pattern.Edge{From: e.From, To: e.To, Label: simple[i]})
	}
	forcedEps := map[string]bool{}
	nowDefined := simple.DefinedVars()
	for v := range p.defined {
		if !nowDefined[v] {
			forcedEps[v] = true
		}
	}
	tr, err := simpleToECRPQerInfo(&Query{Pattern: g}, forcedEps)
	return member{tr: tr, repl: repl, err: err}
}

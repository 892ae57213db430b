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
// Prepare(q) classifies q's fragment and precomputes everything derivable
// from the query alone — the bounded-evaluation schedule (boundedPlan) and the
// members of the union of ECRPQ^er a vstar-free query is (Lemma 3, Lemma 7 /
// Lemma 13) — into an immutable Plan. Binding a Plan to a database (Plan.Bind,
// session.go) yields a Session over the database's atom store, whose Do and
// Stream are the only ways to run the query; the one-shot Do (eval.go)
// prepares and binds per call.

// planKind is the dispatch class of a prepared query, the fragment dispatch
// of Do: the strongest complete algorithm for the query's syntactic
// fragment.
type planKind int

const (
	kindClassical planKind = iota // CRPQ: no string variables
	kindSimple                    // simple conjunctive xregex (Lemma 3)
	kindVsf                       // vstar-free (Theorem 2 / Lemma 7)
	kindGeneral                   // unrestricted: only ≤k / log semantics
)

// vsfComboCap bounds the number of Lemma 7 branch combinations a Plan keeps
// translated (their count is exponential in the worst case, and a Plan must
// stay small); beyond it the member source enumerates and translates them
// again on every call.
const vsfComboCap = 1024

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
// members of the vstar-free union. A Plan holds no database state — bind it to a
// graph.DB with Bind to evaluate — and is safe for concurrent use by any
// number of Sessions.
type Plan struct {
	q        *Query
	c        CXRE
	kind     planKind
	fragment string
	sigma    []rune // the query's alphabet; a bounded run merges it with the database's

	// self names the plan in the keys of its answers in an atom store
	// (resultKey): weak, so that no store keeps a plan alive.
	self weak.Pointer[Plan]

	boundedOnce sync.Once
	bounded     *boundedPlan // any query has ≤k / log semantics
	boundedErr  error

	// The union of ECRPQ^er a vstar-free query is evaluated as, built on first
	// use: its members, or overCap when there are more than vsfComboCap; and
	// the branches of each component, or the error expanding them failed
	// with, from which a member is decoded (branchMember).
	membersOnce sync.Once
	kept        []member
	overCap     bool
	branches    [][]xregex.Node
	branchErr   error

	// srcCols holds, per arm — [0] the union, [1] the bounded engine — the
	// output positions of the source variables (sourceCols), built on first
	// use.
	srcCols [2]struct {
		once sync.Once
		cols []int
	}
}

// Prepare validates q and compiles it into a reusable Plan. The fragment
// classification happens here, once; the per-fragment machinery (bounded
// schedule, translations) materializes on first use of its path, so
// classical/simple/vsf plans never pay for the bounded schedule and vice
// versa.
func Prepare(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{q: q, c: q.CXRE(), fragment: q.Fragment()}
	p.sigma, p.self = p.c.Alphabet(), weak.Make(p)
	switch {
	case p.c.IsClassical():
		p.kind = kindClassical
	case p.c.IsSimple():
		p.kind = kindSimple
	case p.c.IsVStarFree():
		p.kind = kindVsf
	default:
		p.kind = kindGeneral
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

// members returns the plan's one member source: the queries, by index, of
// the union of ECRPQ^er the query is equivalent to, which Session.source
// compiles over its database (ecrpq.QueryMembers). A classical query is its
// own single member and a simple one its Lemma 3 translation; a vstar-free
// query has one member per Lemma 7 branch combination — kept, translated
// once per Plan, when there are at most vsfComboCap of them, decoded and
// translated afresh on every request beyond that. A plan that is not
// vstar-free has no such union.
func (p *Plan) members() (func(i int) (*ecrpq.Query, bool, error), error) {
	if p.kind == kindGeneral {
		return nil, fmt.Errorf("cxrpq: %s is not vstar-free; evaluate it under the bounded (CXRPQ^≤k) or log semantics", p.fragment)
	}
	p.membersOnce.Do(func() {
		switch p.kind {
		case kindClassical:
			// Every edge is its own translation.
			split, at := make([][]int, len(p.q.Pattern.Edges)), make([]int, len(p.q.Pattern.Edges))
			for i := range split {
				at[i], split[i] = i, at[i:i+1]
			}
			p.kept = []member{{tr: &SimpleTranslation{Query: &ecrpq.Query{Pattern: p.q.Pattern}, EdgeSplit: split}}}
		case kindSimple:
			tr, err := simpleToECRPQerInfo(p.q, nil)
			p.kept = []member{{tr: tr, err: err}}
		default:
			p.branches, p.branchErr = expandBranches(p.c)
			for i := 0; ; i++ {
				m, ok := p.branchMember(i)
				if !ok {
					break
				}
				if i == vsfComboCap {
					p.kept, p.overCap = nil, true
					break
				}
				p.kept = append(p.kept, m)
			}
		}
	})
	return p.query, nil
}

// member returns member i of the plan's union, which members has built.
func (p *Plan) member(i int) (member, bool) {
	if p.overCap {
		return p.branchMember(i)
	}
	if i < len(p.kept) {
		return p.kept[i], true
	}
	return member{}, false
}

// query is member i as an ECRPQ^er, or the error its translation failed with.
func (p *Plan) query(i int) (*ecrpq.Query, bool, error) {
	m, ok := p.member(i)
	if !ok || m.err != nil {
		return nil, ok, m.err
	}
	return m.tr.Query, true, nil
}

// branchMember translates member i of the Lemma 7 union: the branch
// combination that picks, for each component, the branch at its digit of i
// in the mixed radix of the components' branch counts, the last component
// varying fastest. A failed expansion is the one member, its error.
func (p *Plan) branchMember(i int) (member, bool) {
	if p.branchErr != nil {
		return member{err: p.branchErr}, i == 0
	}
	combo := make(CXRE, len(p.branches))
	for c := len(combo) - 1; c >= 0; c-- {
		bs := p.branches[c]
		if len(bs) == 0 {
			return member{}, false
		}
		combo[c] = xregex.Clone(bs[i%len(bs)])
		i /= len(bs)
	}
	if i > 0 {
		return member{}, false
	}
	return p.comboMember(combo, p.c.DefinedVars()), true
}

// comboMember normalizes one variable-simple branch combination via Step 3
// and translates it into an ECRPQ^er, with images of originally defined but
// branch-dropped variables forced to ε.
func (p *Plan) comboMember(combo CXRE, origDefined map[string]bool) member {
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
	for v := range origDefined {
		if !nowDefined[v] {
			forcedEps[v] = true
		}
	}
	tr, err := simpleToECRPQerInfo(&Query{Pattern: g}, forcedEps)
	return member{tr: tr, repl: repl, err: err}
}

// sourceCols returns the output positions of the source variables of every
// atom the arm runs — the bounded pattern, or each union member's own, which
// has the existential intermediate variables of its Lemma 3 / Lemma 13
// translation — ascending and computed once per plan. A carried eval answer
// over a window that removed edges keeps exactly its rows with no frontier
// node at these positions (Session.settleCarried). It is nil, and such an
// answer is computed again, when some source variable is not an output
// variable, when the members disagree on the positions (a row a member
// found would then not name the sources of its witness), or when the plan
// has no kept members.
func (p *Plan) sourceCols(bounded bool) []int {
	arm := 0
	if bounded {
		arm = 1
	}
	m := &p.srcCols[arm]
	m.once.Do(func() {
		if bounded {
			if bp, err := p.boundedPlanFor(); err == nil {
				m.cols = outputCols(bp.q.Pattern)
			}
			return
		}
		if _, err := p.members(); err != nil || p.overCap {
			return
		}
		for i, mb := range p.kept {
			if mb.err != nil {
				m.cols = nil
				return
			}
			cols := outputCols(mb.tr.Query.Pattern)
			if cols == nil || i > 0 && !slices.Equal(cols, m.cols) {
				m.cols = nil
				return
			}
			m.cols = cols
		}
	})
	return m.cols
}

// outputCols returns the output position of each source variable of g,
// ascending, or nil when one is not an output variable.
func outputCols(g *pattern.Graph) []int {
	cols := []int{}
	for _, z := range ecrpq.SourceVars(g) {
		at := slices.Index(g.Out, z)
		if at < 0 {
			return nil
		}
		cols = append(cols, at)
	}
	slices.Sort(cols)
	return cols
}

package cxrpq

import (
	"fmt"
	"sync"

	"cxrpq/internal/ecrpq"
)

// This file is the compile-once half of the prepared-query subsystem.
// Prepare(q) classifies q's fragment and precomputes everything derivable
// from the query alone — the bounded-evaluation schedule (boundedPlan) and the
// members of the union of ECRPQ^er a vstar-free query is (Lemma 3, Lemma 7 /
// Lemma 13) — into an immutable Plan. Binding a Plan to a database (Plan.Bind,
// session.go) yields a Session owning the per-database caches; the historical
// one-shot functions (Eval, EvalBounded, Check, Explain, …) are thin wrappers
// that prepare and bind per call.

// planKind is the dispatch class of a prepared query, mirroring the
// fragment dispatch of Eval: the strongest complete algorithm for the
// query's syntactic fragment.
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
// again on every call. It is the union evaluators' window, so the members a
// Plan keeps are one fan.
const vsfComboCap = ecrpq.UnionWindow

// member is one kept member of the plan's union: the ECRPQ^er, or the error
// its translation failed with (kept, not raised, because a match of another
// member wins over it).
type member struct {
	eq  *ecrpq.Query
	err error
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

	boundedOnce sync.Once
	bounded     *boundedPlan // any query has ≤k / log semantics
	boundedErr  error

	// The union of ECRPQ^er a vstar-free query is evaluated as, built on first
	// use: its members, or overCap when there are more than vsfComboCap.
	membersOnce sync.Once
	kept        []member
	overCap     bool
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

// Query returns the underlying query.
func (p *Plan) Query() *Query { return p.q }

// Fragment returns the human-readable name of the smallest syntactic
// fragment containing the query (classified once at Prepare).
func (p *Plan) Fragment() string { return p.fragment }

// members returns the plan's one member source: the union of ECRPQ^er the
// query is equivalent to. A classical query is its own single member and a
// simple one its Lemma 3 translation; a vstar-free query has one member per
// Lemma 7 branch combination — kept, translated once per Plan, when there
// are at most vsfComboCap of them, enumerated and translated afresh by every
// range beyond that. A plan that is not vstar-free has no such union.
func (p *Plan) members() (ecrpq.Members, error) {
	if p.kind == kindGeneral {
		return nil, fmt.Errorf("cxrpq: %s is not vstar-free; evaluate it under the bounded (CXRPQ^≤k) or log semantics", p.fragment)
	}
	p.membersOnce.Do(func() {
		switch p.kind {
		case kindClassical:
			p.kept = []member{{eq: &ecrpq.Query{Pattern: p.q.Pattern}}}
		case kindSimple:
			eq, err := SimpleToECRPQer(p.q, nil)
			p.kept = []member{{eq, err}}
		default:
			for eq, err := range p.branchMembers {
				if len(p.kept) == vsfComboCap {
					p.kept, p.overCap = nil, true
					break
				}
				p.kept = append(p.kept, member{eq, err})
			}
		}
	})
	if p.overCap {
		return p.branchMembers, nil
	}
	return func(yield func(*ecrpq.Query, error) bool) {
		for _, m := range p.kept {
			if !yield(m.eq, m.err) {
				return
			}
		}
	}, nil
}

// branchMembers enumerates the Lemma 7 branch combinations and yields the
// translation of each; a failure of the enumeration itself ends the sequence
// as one last member.
func (p *Plan) branchMembers(yield func(*ecrpq.Query, error) bool) {
	origDefined := p.c.DefinedVars()
	err := branchCombos(p.c, func(combo CXRE) error {
		if !yield(comboToSimpleECRPQ(p.q, combo, origDefined)) {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		yield(nil, err)
	}
}

package cxrpq

import (
	"fmt"
	"sort"

	"cxrpq/internal/crpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// SimpleToECRPQer translates a CXRPQ whose conjunctive xregex is simple into
// an equivalent ECRPQ^er (the constructions inside Lemma 3 and Lemma 13):
// components are factorized, definitions x{y} are collapsed into references
// of y, each factor becomes its own pattern edge, and every string variable
// becomes an equality group tying its definition edge (labelled by the
// definition body) to its reference edges (labelled Σ*).
//
// forcedEps lists variables that are defined in the *original* conjunctive
// xregex but not in this (branch-selected) one; per §3.1 their image is
// forced to ε, so their references become ε-edges. Variables with no
// definition anywhere (free variables) share an arbitrary word via an
// equality group without a definition edge. Pass nil for forcedEps when the
// query itself is the original.
func SimpleToECRPQer(q *Query, forcedEps map[string]bool) (*ecrpq.Query, error) {
	tr, err := simpleToECRPQerInfo(q, forcedEps)
	if err != nil {
		return nil, err
	}
	return tr.Query, nil
}

// SimpleTranslation is the result of the simple-CXRPQ → ECRPQ^er
// translation together with the bookkeeping needed to map witnesses back:
// which translated edge defines each variable, which edges reference it,
// which original edge each translated edge came from, and which variables
// were forced to ε.
type SimpleTranslation struct {
	Query     *ecrpq.Query
	DefEdge   map[string]int
	RefEdges  map[string][]int
	ForcedEps map[string]bool
	EdgeSplit [][]int           // original edge index -> translated edge indices
	Alias     map[string]string // x -> y for collapsed definitions x{y}
}

func simpleToECRPQerInfo(q *Query, forcedEps map[string]bool) (*SimpleTranslation, error) {
	c := q.CXRE()
	if !c.IsSimple() {
		return nil, fmt.Errorf("cxrpq: conjunctive xregex is not simple")
	}
	work := c.Clone()

	// Collapse definitions x{y}: replace the definition and all references
	// of x by references of y (Lemma 3). Process in ≺-topological order so
	// chains x{y}, u{x} resolve fully. Aliases are recorded for witness
	// reconstruction.
	alias := map[string]string{}
	order, err := xregex.TopoVars([]xregex.Node(work)...)
	if err != nil {
		return nil, err
	}
	for _, x := range order {
		bodies := xregex.DefBodies(x, []xregex.Node(work)...)
		if len(bodies) != 1 {
			continue
		}
		ref, ok := bodies[0].(*xregex.Ref)
		if !ok {
			continue
		}
		y := ref.Var
		alias[x] = y
		for i := range work {
			work[i] = xregex.ReplaceDefs(work[i], x, func(xregex.Node) xregex.Node {
				return &xregex.Ref{Var: y}
			})
			work[i] = xregex.ReplaceRefs(work[i], x, &xregex.Ref{Var: y})
		}
	}

	defined := work.DefinedVars()
	out := &pattern.Graph{Out: append([]string(nil), q.Pattern.Out...)}
	defEdge := map[string]int{}
	refEdges := map[string][]int{}
	edgeSplit := make([][]int, len(q.Pattern.Edges))

	for i, e := range q.Pattern.Edges {
		factors, err := xregex.Factorize(work[i])
		if err != nil {
			return nil, fmt.Errorf("cxrpq: component %d: %v", i, err)
		}
		cur := e.From
		for j, f := range factors {
			next := e.To
			if j < len(factors)-1 {
				next = fmt.Sprintf("_%s_%d_%d", e.From, i, j)
			}
			ei := len(out.Edges)
			edgeSplit[i] = append(edgeSplit[i], ei)
			switch f.Kind {
			case xregex.FClassical:
				out.Edges = append(out.Edges, pattern.Edge{From: cur, To: next, Label: f.Expr})
			case xregex.FDef:
				if !xregex.IsClassical(f.Expr) {
					return nil, fmt.Errorf("cxrpq: non-basic definition of $%s survived", f.Var)
				}
				out.Edges = append(out.Edges, pattern.Edge{From: cur, To: next, Label: f.Expr})
				defEdge[f.Var] = ei
			case xregex.FRef:
				if forcedEps[f.Var] {
					out.Edges = append(out.Edges, pattern.Edge{From: cur, To: next, Label: &xregex.Eps{}})
				} else {
					out.Edges = append(out.Edges, pattern.Edge{From: cur, To: next, Label: xregex.AnyWord()})
					refEdges[f.Var] = append(refEdges[f.Var], ei)
				}
			}
			cur = next
		}
	}

	eq := &ecrpq.Query{Pattern: out}
	var vars []string
	for v := range defined {
		vars = append(vars, v)
	}
	for v := range refEdges {
		if !defined[v] {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	seen := map[string]bool{}
	for _, x := range vars {
		if seen[x] {
			continue
		}
		seen[x] = true
		var members []int
		if ei, ok := defEdge[x]; ok {
			members = append(members, ei)
		}
		members = append(members, refEdges[x]...)
		if len(members) >= 2 {
			eq.Groups = append(eq.Groups, ecrpq.Group{
				Edges: members,
				Rel:   &ecrpq.Equality{N: len(members)},
			})
		}
	}
	if err := eq.Validate(); err != nil {
		return nil, err
	}
	fe := map[string]bool{}
	for v := range forcedEps {
		fe[v] = true
	}
	return &SimpleTranslation{
		Query:     eq,
		DefEdge:   defEdge,
		RefEdges:  refEdges,
		ForcedEps: fe,
		EdgeSplit: edgeSplit,
		Alias:     alias,
	}, nil
}

// branchCombos enumerates one branch choice per component; each callback
// receives a variable-simple conjunctive xregex. Plan.branchMembers is its
// one caller; the enumeration realizes Lemma 7's nondeterministic alternation
// resolution. Returns an error from the callback, stopping early if errStop
// is returned.
var errStop = fmt.Errorf("stop")

func branchCombos(c CXRE, f func(CXRE) error) error {
	expanded := make([][]xregex.Node, len(c))
	for i, n := range c {
		branches, err := xregex.ExpandVariableSimple(n)
		if err != nil {
			return err
		}
		expanded[i] = branches
	}
	combo := make(CXRE, len(c))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(c) {
			return f(combo.Clone())
		}
		for _, b := range expanded[i] {
			combo[i] = b
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// VsfToUnionECRPQer implements Lemma 13: every CXRPQ^vsf is equivalent to a
// union of ECRPQ^er (with an exponential size blow-up in general): the
// members of the prepared query's union, collected.
func VsfToUnionECRPQer(q *Query) (*ecrpq.Union, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	ms, err := p.members()
	if err != nil {
		return nil, err
	}
	u := &ecrpq.Union{}
	for eq, err := range queries(ms) {
		if err != nil {
			return nil, err
		}
		u.Members = append(u.Members, eq)
	}
	return u, nil
}

// BoundedToUnionCRPQ implements Lemma 14: for every k, a CXRPQ interpreted
// under CXRPQ^≤k semantics is equivalent to the union of the CRPQs q[v̄]
// over all variable mappings v̄ ∈ (Σ^≤k)^n — an O((|Σ|+1)^{nk}) blow-up
// (§8 notes this is likely unavoidable). sigma is the alphabet over which
// images range (typically the database alphabet).
func BoundedToUnionCRPQ(q *Query, k int, sigma []rune) (*crpq.Union, error) {
	c := q.CXRE()
	var vars []string
	for v := range c.Vars() {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	words := wordsUpTo(sigma, k)
	u := &crpq.Union{}
	assign := map[string]string{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			inst, err := q.InstantiateCRPQ(assign, sigma)
			if err != nil {
				return err
			}
			// skip members that are trivially empty (some edge is ∅)
			for _, e := range inst.Pattern.Edges {
				if _, empty := e.Label.(*xregex.Empty); empty {
					return nil
				}
			}
			u.Members = append(u.Members, inst)
			return nil
		}
		for _, w := range words {
			assign[vars[i]] = w
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(assign, vars[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return u, nil
}

// wordsUpTo returns all words over sigma of length ≤ k, shortest first.
func wordsUpTo(sigma []rune, k int) []string {
	words := []string{""}
	level := []string{""}
	for i := 0; i < k; i++ {
		var next []string
		for _, w := range level {
			for _, r := range sigma {
				next = append(next, w+string(r))
			}
		}
		words = append(words, next...)
		level = next
	}
	return words
}

// FromECRPQer implements Lemma 12: every ECRPQ^er is equivalent to a
// CXRPQ^vsf,fl. Each equality class gets a fresh string variable: its first
// edge is labelled z{β} where β is a regular expression for the
// intersection of the class's edge languages, and the remaining edges are
// labelled with references of z.
func FromECRPQer(eq *ecrpq.Query, sigma []rune) (*Query, error) {
	if err := eq.Validate(); err != nil {
		return nil, err
	}
	if !eq.IsER() {
		return nil, fmt.Errorf("cxrpq: query has non-equality relations")
	}
	sigma = xregex.MergeAlphabets(sigma, xregex.AlphabetOf(eq.Pattern.Labels()...))
	g := eq.Pattern.Clone()
	for gi, grp := range eq.Groups {
		var exprs []xregex.Node
		for _, ei := range grp.Edges {
			exprs = append(exprs, g.Edges[ei].Label)
		}
		inter, err := xregex.IntersectionRegex(sigma, exprs...)
		if err != nil {
			return nil, err
		}
		z := fmt.Sprintf("z%d", gi)
		first := grp.Edges[0]
		g.Edges[first].Label = &xregex.Def{Var: z, Body: inter}
		for _, ei := range grp.Edges[1:] {
			g.Edges[ei].Label = &xregex.Ref{Var: z}
		}
	}
	q, err := New(g)
	if err != nil {
		return nil, err
	}
	if !q.IsVStarFreeFlat() {
		return nil, fmt.Errorf("cxrpq: Lemma 12 output not in CXRPQ^vsf,fl")
	}
	return q, nil
}

package cxrpq

import (
	"fmt"
	"sort"

	"cxrpq/internal/xregex"
)

// NormalFormStats records the size development across the three steps of
// the normal-form construction, reproducing the blow-up analysis of §5.1
// and §5.3 (experiment E5).
type NormalFormStats struct {
	Input      int // |ᾱ|
	AfterStep1 int // Lemma 4: O(2^|ᾱ|)
	AfterStep2 int // Lemma 5: O(|ᾱ|²) relative to step 1
	AfterStep3 int // Lemma 6: O(|ᾱ|^{|Xs|+1}); Lemma 8: O(|ᾱ|²) if flat
}

// Step1MultiplyOut (Lemma 4) turns each component of a vstar-free
// conjunctive xregex into an alternation of variable-simple xregex.
func Step1MultiplyOut(c CXRE) (CXRE, error) {
	out := make(CXRE, len(c))
	for i, n := range c {
		var err error
		if out[i], err = xregex.MultiplyOut(n); err != nil {
			return nil, fmt.Errorf("cxrpq: component %d: %v", i, err)
		}
	}
	return out, nil
}

// componentBranches views a component as its list of alternation branches.
func componentBranches(n xregex.Node) []xregex.Node {
	if alt, ok := n.(*xregex.Alt); ok {
		return alt.Kids
	}
	return []xregex.Node{n}
}

func branchesNode(bs []xregex.Node) xregex.Node {
	if len(bs) == 1 {
		return bs[0]
	}
	return &xregex.Alt{Kids: bs}
}

// Step2RenameApart (Lemma 5) renames variables so that every variable has
// at most one definition in the whole tuple: a variable x defined in
// several branches of its component gets one fresh name per branch, and
// every reference of x anywhere is replaced by the concatenation of the
// fresh names (at most one of which is instantiated in any derivation).
func Step2RenameApart(c CXRE) CXRE {
	out := c.Clone()
	// collect variables in deterministic order
	var vars []string
	for v := range out.Vars() {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	fresh := newNamer(out)
	for _, x := range vars {
		// count definitions of x across the tuple
		total := 0
		comp := -1
		for i, n := range out {
			if k := len(xregex.DefBodies(x, n)); k > 0 {
				total += k
				comp = i
			}
		}
		if total <= 1 {
			continue
		}
		branches := componentBranches(out[comp])
		var newNames []string
		for j, b := range branches {
			if !xregex.ContainsDef(b, x) {
				continue
			}
			name := fresh.fresh(fmt.Sprintf("%s_%d", x, j))
			branches[j] = xregex.RenameVar(b, x, name)
			newNames = append(newNames, name)
		}
		out[comp] = branchesNode(branches)
		// replace every remaining reference of x (anywhere) by the
		// concatenation of the new names
		repl := make([]xregex.Node, len(newNames))
		for i, nm := range newNames {
			repl[i] = &xregex.Ref{Var: nm}
		}
		concat := xregex.Simplify(&xregex.Cat{Kids: repl})
		for i := range out {
			out[i] = xregex.ReplaceRefs(out[i], x, concat)
		}
	}
	return out
}

// Step3MainModification (Lemma 6) removes non-basic definitions: processing
// variables in ≺-topological order (roots first), each non-basic definition
// z{γ1…γp} is replaced by a concatenation of fresh basic definitions
// y1{…}…yp{…} and every reference of z by y1…yp.
//
// Precondition: every component is an alternation of variable-simple
// xregex and every variable has at most one definition in the tuple
// (ensured by Steps 1 and 2, or by branch selection in Plan.members).
func Step3MainModification(c CXRE) (CXRE, error) {
	out, _, err := step3WithMap(c)
	return out, err
}

// step3WithMap additionally returns, for every variable z whose non-basic
// definition was eliminated, the ordered list of replacement variables whose
// concatenated images equal z's image (used to reconstruct witnesses).
func step3WithMap(c CXRE) (CXRE, map[string][]string, error) {
	out := c.Clone()
	repl := map[string][]string{}
	order, err := xregex.TopoVars([]xregex.Node(out)...)
	if err != nil {
		return nil, nil, err
	}
	fresh := newNamer(out)
	for _, z := range order {
		bodies := xregex.DefBodies(z, []xregex.Node(out)...)
		if len(bodies) == 0 {
			continue
		}
		if len(bodies) > 1 {
			return nil, nil, fmt.Errorf("cxrpq: step 3 precondition violated: %d definitions of $%s", len(bodies), z)
		}
		if xregex.IsBasicDef(bodies[0]) {
			continue
		}
		factors, err := xregex.Factorize(bodies[0])
		if err != nil {
			return nil, nil, fmt.Errorf("cxrpq: step 3 on $%s: %v", z, err)
		}
		// Build the replacement definition sequence and the reference list.
		var defSeq []xregex.Node
		var refSeq []xregex.Node
		for _, f := range factors {
			switch f.Kind {
			case xregex.FDef:
				defSeq = append(defSeq, f.Node())
				refSeq = append(refSeq, &xregex.Ref{Var: f.Var})
			case xregex.FClassical:
				y := fresh.fresh(z + "c")
				defSeq = append(defSeq, &xregex.Def{Var: y, Body: f.Expr})
				refSeq = append(refSeq, &xregex.Ref{Var: y})
			case xregex.FRef:
				y := fresh.fresh(z + "r")
				defSeq = append(defSeq, &xregex.Def{Var: y, Body: &xregex.Ref{Var: f.Var}})
				refSeq = append(refSeq, &xregex.Ref{Var: y})
			}
		}
		defRepl := xregex.Simplify(&xregex.Cat{Kids: defSeq})
		refRepl := xregex.Simplify(&xregex.Cat{Kids: refSeq})
		var names []string
		for _, r := range refSeq {
			names = append(names, r.(*xregex.Ref).Var)
		}
		repl[z] = names
		for i := range out {
			out[i] = xregex.ReplaceDefs(out[i], z, func(xregex.Node) xregex.Node {
				return xregex.Clone(defRepl)
			})
			out[i] = xregex.ReplaceRefs(out[i], z, refRepl)
		}
	}
	return out, repl, nil
}

// NormalForm transforms a vstar-free conjunctive xregex into an equivalent
// one in normal form (Theorem 4: each component is an alternation of simple
// xregex), returning size statistics for the blow-up experiments.
func NormalForm(c CXRE) (CXRE, *NormalFormStats, error) {
	stats := &NormalFormStats{Input: c.Size()}
	s1, err := Step1MultiplyOut(c)
	if err != nil {
		return nil, nil, err
	}
	stats.AfterStep1 = s1.Size()
	s2 := Step2RenameApart(s1)
	stats.AfterStep2 = s2.Size()
	s3, err := Step3MainModification(s2)
	if err != nil {
		return nil, nil, err
	}
	stats.AfterStep3 = s3.Size()
	for i, n := range s3 {
		if !xregex.IsNormalForm(n) {
			return nil, nil, fmt.Errorf("cxrpq: component %d not in normal form after step 3: %s", i, xregex.String(n))
		}
	}
	return s3, stats, nil
}

// namer generates variable names that are fresh with respect to an existing
// conjunctive xregex and everything generated so far.
type namer struct{ used map[string]bool }

func newNamer(c CXRE) *namer {
	n := &namer{used: map[string]bool{}}
	for v := range c.Vars() {
		n.used[v] = true
	}
	return n
}

func (n *namer) fresh(base string) string {
	if !n.used[base] {
		n.used[base] = true
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !n.used[cand] {
			n.used[cand] = true
			return cand
		}
	}
}

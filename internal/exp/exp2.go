package exp

import (
	"errors"
	"fmt"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pathsem"
	"cxrpq/internal/pattern"
	"cxrpq/internal/reductions"
	"cxrpq/internal/separations"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// E09HittingSet runs the Theorem 7 reduction on Hitting Set instances and
// cross-checks against brute force.
func E09HittingSet(scale int) *Table {
	t := &Table{ID: "E9", Title: "Theorem 7 (Fig. 4): Hitting Set via single-edge CXRPQ^≤1 (reduction vs oracle)",
		Header: []string{"n", "m sets", "k", "reduction", "oracle", "agree", "time"}}
	cases := []*reductions.HittingSetInstance{
		{N: 2, Sets: [][]int{{0, 1}}, K: 1},
		{N: 3, Sets: [][]int{{0, 1}, {1, 2}}, K: 1},
		{N: 3, Sets: [][]int{{0}, {2}}, K: 1},
		{N: 3, Sets: [][]int{{0}, {2}}, K: 2},
	}
	if scale > 1 {
		cases = append(cases, &reductions.HittingSetInstance{N: 4, Sets: [][]int{{0, 1}, {2, 3}, {1, 2}}, K: 2})
	}
	for _, h := range cases {
		start := time.Now()
		got, err := h.SolveViaReduction()
		if err != nil {
			return fail(t, err)
		}
		el := time.Since(start)
		want := h.HasHittingSet()
		t.Rows = append(t.Rows, []string{fmt.Sprint(h.N), fmt.Sprint(len(h.Sets)), fmt.Sprint(h.K),
			fmt.Sprint(got), fmt.Sprint(want), fmt.Sprint(got == want), ms(el)})
	}
	return t
}

// E10LogBounded measures CXRPQ^log evaluation (Corollary 1): the image
// bound grows with log |D|.
func E10LogBounded(scale int) *Table {
	t := &Table{ID: "E10", Title: "Corollary 1: CXRPQ^log evaluation (k = ceil(log2 |D|))",
		Header: []string{"|D|", "k=log|D|", "match", "time"}}
	q := cxrpq.MustParse("ans()\nx y : #$v{a+}b$v#")
	for i := 1; i <= 3; i++ {
		n := 2 * i * scale
		db := workload.Path(fmt.Sprintf("#%sb%s#", repeat("a", n), repeat("a", n)), 1)
		start := time.Now()
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool", Semantics: "log"})
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		el := time.Since(start)
		sz := db.Size()
		t.Rows = append(t.Rows, []string{fmt.Sprint(sz), fmt.Sprint(logOf(sz)),
			fmt.Sprint(resp.OK), ms(el)})
	}
	return t
}

func repeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

func logOf(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}

// E11Figure5 mechanically verifies the Figure 5 diagram: each inclusion by
// translating sample queries and comparing results on random databases,
// each separation by running the separating query on its witness family.
func E11Figure5(scale int) *Table {
	t := &Table{ID: "E11", Title: "Figure 5: inclusion diagram, mechanically verified",
		Header: []string{"relationship", "status", "evidence"}}
	dbs := []*graph.DB{
		workload.Random(21, 5*scale, 12*scale, "ab"),
		workload.Random(22, 6*scale, 10*scale, "ab"),
	}

	// 1. ECRPQ^er ⊆ CXRPQ^vsf,fl (Lemma 12)
	eq := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans(x1, y1, x2, y2)\nx1 y1 : (ab)+\nx2 y2 : a(ba)*b"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}},
	}
	q12, err := cxrpq.FromECRPQer(eq, []rune("ab"))
	if err != nil {
		return fail(t, err)
	}
	ok := true
	for _, db := range dbs {
		a, err := ecrpq.Eval(eq, db)
		if err != nil {
			return fail(t, err)
		}
		b := cxrpq.Do(q12, db, cxrpq.Request{Op: "eval"})
		if b.Err != nil {
			return fail(t, b.Err)
		}
		if !a.Equal(b.Tuples) {
			ok = false
		}
	}
	t.Rows = append(t.Rows, []string{"ECRPQ^er ⊆ CXRPQ^vsf,fl (Lemma 12)", status(ok),
		"translated sample query agrees on random DBs"})

	// 2. CXRPQ^vsf ⊆ ∪-ECRPQ^er (Lemma 13)
	qvsf := cxrpq.MustParse("ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|b)($x|a)?")
	u13, err := cxrpq.VsfToUnionECRPQer(qvsf)
	if err != nil {
		return fail(t, err)
	}
	ok = true
	for _, db := range dbs {
		a := cxrpq.Do(qvsf, db, cxrpq.Request{Op: "eval"})
		if a.Err != nil {
			return fail(t, a.Err)
		}
		b, err := ecrpq.EvalUnion(u13, db)
		if err != nil {
			return fail(t, err)
		}
		if !a.Tuples.Equal(b) {
			ok = false
		}
	}
	t.Rows = append(t.Rows, []string{"CXRPQ^vsf ⊆ ∪-ECRPQ^er (Lemma 13)", status(ok),
		fmt.Sprintf("%d union members agree on random DBs", len(u13.Members))})

	// 3. CXRPQ^≤k ⊆ ∪-CRPQ (Lemma 14)
	q14 := cxrpq.MustParse("ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|b)+")
	u14, err := cxrpq.BoundedToUnionCRPQ(q14, 1, []rune("ab"))
	if err != nil {
		return fail(t, err)
	}
	ok = true
	for _, db := range dbs {
		a := cxrpq.Do(q14, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})
		if a.Err != nil {
			return fail(t, a.Err)
		}
		b, err := u14.Eval(db)
		if err != nil {
			return fail(t, err)
		}
		if !a.Tuples.Equal(b) {
			ok = false
		}
	}
	t.Rows = append(t.Rows, []string{"CXRPQ^≤k ⊆ ∪-CRPQ (Lemma 14)", status(ok),
		fmt.Sprintf("%d union members agree on random DBs", len(u14.Members))})

	// 4. Separation CRPQ ⊊ CXRPQ^≤1 (Lemma 15): q1 distinguishes D_{a,a}
	// from D_{a,b} while its CRPQ relaxation cannot.
	q1 := separations.Q1()
	bool1 := cxrpq.Request{Op: "bool", Semantics: "bounded", K: 1}
	okAA := cxrpq.Do(q1, separations.DSigma('a', 'a'), bool1)
	okAB := cxrpq.Do(q1, separations.DSigma('a', 'b'), bool1)
	surAB := cxrpq.Do(separations.CRPQSurrogateForQ1(), separations.DSigma('a', 'b'), cxrpq.Request{Op: "bool"})
	if err := errors.Join(okAA.Err, okAB.Err, surAB.Err); err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"CRPQ ⊊ CXRPQ^≤1 (Lemma 15)", status(okAA.OK && !okAB.OK && surAB.OK),
		"q1 separates D_{a,a} from D_{a,b}; CRPQ relaxation conflates them"})

	// 5. Separation ECRPQ^er ⊊ CXRPQ (Lemma 16): q2 on its witness family.
	q2 := separations.Q2()
	okW := cxrpq.Do(q2, separations.Q2Witness(1, 2), cxrpq.Request{Op: "bool", Semantics: "bounded", K: 6})
	okB := cxrpq.Do(q2, separations.Q2WitnessBroken(1, 2), cxrpq.Request{Op: "bool", Semantics: "bounded", K: 8})
	if err := errors.Join(okW.Err, okB.Err); err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"ECRPQ^er ⊊ CXRPQ (Lemma 16)", status(okW.OK && !okB.OK),
		"q2 accepts #(a b)^2 c (a b)^2 # and rejects the pumped variant"})

	// 6. Separation CRPQ ⊊ ECRPQ^er ⊊ ECRPQ (Theorem 9): q_anan / q_anbn.
	anan := separations.QAnAn()
	a1, err := ecrpq.EvalBool(anan, separations.DnMPaths(2, 2, 'a'))
	if err != nil {
		return fail(t, err)
	}
	a2, err := ecrpq.EvalBool(anan, separations.DnMPaths(2, 3, 'a'))
	if err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"CRPQ ⊊ ECRPQ^er (Theorem 9)", status(a1 && !a2),
		"q_anan separates D_{2,2} from D_{2,3}"})
	anbn := separations.QAnBn()
	b1, err := ecrpq.EvalBool(anbn, separations.DnMPaths(3, 3, 'b'))
	if err != nil {
		return fail(t, err)
	}
	b2, err := ecrpq.EvalBool(anbn, separations.DnMPaths(3, 4, 'b'))
	if err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"ECRPQ^er ⊊ ECRPQ (Theorem 9)", status(b1 && !b2),
		"q_anbn (equal-length) separates D_{3,3} from D_{3,4}"})
	return t
}

func status(ok bool) string {
	if ok {
		return "VERIFIED"
	}
	return "FAILED"
}

// E12Separations tabulates q_anbn and q_anan over the D_{n,m} family
// (Theorem 9 / Figure 6).
func E12Separations(scale int) *Table {
	t := &Table{ID: "E12", Title: "Theorem 9 (Fig. 6): q_anbn and q_anan over the D_{n,m} path family",
		Header: []string{"n", "m", "q_anbn(D c·aⁿ·c / d·bᵐ·d)", "q_anan(D c·aⁿ·c / d·aᵐ·d)"}}
	maxN := 2 + scale
	anbn := separations.QAnBn()
	anan := separations.QAnAn()
	for n := 1; n <= maxN; n++ {
		for m := n; m <= n+1; m++ {
			r1, err := ecrpq.EvalBool(anbn, separations.DnMPaths(n, m, 'b'))
			if err != nil {
				return fail(t, err)
			}
			r2, err := ecrpq.EvalBool(anan, separations.DnMPaths(n, m, 'a'))
			if err != nil {
				return fail(t, err)
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(m), fmt.Sprint(r1), fmt.Sprint(r2)})
		}
	}
	return t
}

// E13Fig7 tabulates q1 over the D_{σ1,σ2} family and q2 over its witness
// family (Lemmas 15/16, Figure 7).
func E13Fig7(scale int) *Table {
	t := &Table{ID: "E13", Title: "Lemmas 15/16 (Fig. 7): q1 on D_{σ1,σ2}; q2 on #(a^n1 b)^n2 c(a^n1 b)^n2 #",
		Header: []string{"instance", "query", "match", "expected"}}
	q1 := separations.Q1()
	for _, tc := range []struct {
		s1, s2 rune
		want   bool
	}{{'a', 'a', true}, {'b', 'b', true}, {'a', 'c', true}, {'a', 'b', false}, {'b', 'a', false}} {
		got := cxrpq.Do(q1, separations.DSigma(tc.s1, tc.s2), cxrpq.Request{Op: "bool", Semantics: "bounded", K: 1})
		if got.Err != nil {
			return fail(t, got.Err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("D_{%c,%c}", tc.s1, tc.s2), "q1",
			fmt.Sprint(got.OK), fmt.Sprint(tc.want)})
	}
	q2 := separations.Q2()
	for _, tc := range []struct {
		n1, n2 int
		broken bool
		want   bool
	}{{1, 1, false, true}, {1, 2, false, true}, {2, 1 + scale/2, false, true}, {1, 2, true, false}} {
		var db *graph.DB
		name := fmt.Sprintf("witness(%d,%d)", tc.n1, tc.n2)
		if tc.broken {
			db = separations.Q2WitnessBroken(tc.n1, tc.n2)
			name = fmt.Sprintf("broken(%d,%d)", tc.n1, tc.n2)
		} else {
			db = separations.Q2Witness(tc.n1, tc.n2)
		}
		got := cxrpq.Do(q2, db, cxrpq.Request{Op: "bool", Semantics: "bounded", K: tc.n1 + tc.n2 + 4})
		if got.Err != nil {
			return fail(t, got.Err)
		}
		t.Rows = append(t.Rows, []string{name, "q2", fmt.Sprint(got.OK), fmt.Sprint(tc.want)})
	}
	return t
}

// E14Lemma12 measures the Lemma 12 translation sizes (regex intersection via
// state elimination can blow up).
func E14Lemma12(scale int) *Table {
	t := &Table{ID: "E14", Title: "Lemma 12: ECRPQ^er → CXRPQ^vsf,fl translation size",
		Header: []string{"class arity", "|ECRPQ^er|", "|CXRPQ|", "time"}}
	exprs := []string{"(ab)+", "a(ba)*b", "(a|b)(a|b)((a|b)(a|b))*"}
	for s := 2; s <= 2+scale/2+1; s++ {
		var edges string
		for i := 0; i < s; i++ {
			edges += fmt.Sprintf("x%d y%d : %s\n", i, i, exprs[i%len(exprs)])
		}
		idx := make([]int, s)
		for i := range idx {
			idx[i] = i
		}
		eq := &ecrpq.Query{
			Pattern: pattern.MustParseQuery("ans()\n" + edges),
			Groups:  []ecrpq.Group{{Edges: idx, Rel: &ecrpq.Equality{N: s}}},
		}
		start := time.Now()
		q, err := cxrpq.FromECRPQer(eq, []rune("ab"))
		if err != nil {
			return fail(t, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(s), fmt.Sprint(eq.Size()), fmt.Sprint(q.Size()), ms(time.Since(start))})
	}
	return t
}

// E15Lemma13 measures the Lemma 13 blow-up: number and size of union
// members as alternation branches grow.
func E15Lemma13(scale int) *Table {
	t := &Table{ID: "E15", Title: "Lemma 13: CXRPQ^vsf → ∪-ECRPQ^er blow-up (branch combinations)",
		Header: []string{"alternations", "|q|", "members", "|∪-ECRPQ^er|"}}
	maxA := 2 + scale
	for a := 1; a <= maxA; a++ {
		src := "ans()\nu v : $x{a|b}\n"
		for i := 0; i < a; i++ {
			src += fmt.Sprintf("v w%d : ($x|c)(a|$x)\n", i)
		}
		q, err := cxrpq.Parse(src)
		if err != nil {
			return fail(t, err)
		}
		u, err := cxrpq.VsfToUnionECRPQer(q)
		if err != nil {
			return fail(t, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(a), fmt.Sprint(q.Size()),
			fmt.Sprint(len(u.Members)), fmt.Sprint(u.Size())})
	}
	return t
}

// E16Lemma14 measures the Lemma 14 blow-up: (|Σ|+1)^{nk} union members.
func E16Lemma14(scale int) *Table {
	t := &Table{ID: "E16", Title: "Lemma 14 / §8: CXRPQ^≤k → ∪-CRPQ blow-up ((|Σ|+1)^{nk} members before pruning)",
		Header: []string{"n vars", "k", "|Σ|", "members", "|∪-CRPQ|"}}
	for n := 1; n <= 2; n++ {
		for k := 1; k <= 1+scale/2+1; k++ {
			var defs, refs string
			for i := 1; i <= n; i++ {
				defs += fmt.Sprintf("$w%d{(a|b)+}", i)
				refs += fmt.Sprintf("$w%d", i)
			}
			q, err := cxrpq.Parse(fmt.Sprintf("ans()\nu v : %sc\nv u : %s|b", defs, refs))
			if err != nil {
				return fail(t, err)
			}
			u, err := cxrpq.BoundedToUnionCRPQ(q, k, []rune("ab"))
			if err != nil {
				return fail(t, err)
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(k), "2",
				fmt.Sprint(len(u.Members)), fmt.Sprint(u.Size())})
		}
	}
	return t
}

// E17Ablations measures two design choices:
// (a) the Theorem 6 candidate pruning vs the literal blind guess over
// (Σ^≤k)^n, and (b) the specialized lock-step equality product vs the
// generic ⊥-padded relation engine driven by an explicit equality NFA.
func E17Ablations(scale int) *Table {
	t := &Table{ID: "E17", Title: "Ablations: bounded-eval pruning; specialized vs generic equality product",
		Header: []string{"ablation", "variant", "answers", "time"}}
	db := workload.Random(13, 5*scale, 15*scale, "abc")
	q := cxrpq.MustParse("ans(s, t)\ns t : $x{(a|b)+}c\nt s : $x+|b")
	start := time.Now()
	resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2})
	if resp.Err != nil {
		return fail(t, resp.Err)
	}
	r1 := resp.Tuples
	t.Rows = append(t.Rows, []string{"Theorem 6 guess", "pruned (path labels + def bodies)", fmt.Sprint(r1.Len()), ms(time.Since(start))})
	start = time.Now()
	r2, err := cxrpq.EvalBoundedNaive(q, db, 2)
	if err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"Theorem 6 guess", "naive (all of (Σ^≤k)^n)", fmt.Sprint(r2.Len()), ms(time.Since(start))})
	if !r1.Equal(r2) {
		return fail(t, fmt.Errorf("pruning changed the result"))
	}

	db2 := workload.Random(17, 8*scale, 20*scale, "ab")
	pat := "ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+"
	qe1 := &ecrpq.Query{Pattern: pattern.MustParseQuery(pat),
		Groups: []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}}}
	start = time.Now()
	s1, err := ecrpq.Eval(qe1, db2)
	if err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"equality product", "specialized lock-step", fmt.Sprint(s1.Len()), ms(time.Since(start))})
	qe2 := &ecrpq.Query{Pattern: pattern.MustParseQuery(pat),
		Groups: []ecrpq.Group{{Edges: []int{0, 1}, Rel: ecrpq.EqualityNFA(2, []rune("ab"))}}}
	start = time.Now()
	s2, err := ecrpq.Eval(qe2, db2)
	if err != nil {
		return fail(t, err)
	}
	t.Rows = append(t.Rows, []string{"equality product", "generic ⊥-padded NFA relation", fmt.Sprint(s2.Len()), ms(time.Since(start))})
	if !s1.Equal(s2) {
		return fail(t, fmt.Errorf("equality variants disagree"))
	}
	return t
}

// E18PathSemantics demonstrates the §1 discussion on path semantics (refs
// [34–36]): the same RPQ returns different answers under arbitrary, simple
// and trail semantics once cycles are involved.
func E18PathSemantics(scale int) *Table {
	t := &Table{ID: "E18", Title: "§1 path semantics: RPQ answers under arbitrary / simple / trail",
		Header: []string{"graph", "query", "arbitrary", "simple", "trail"}}
	type inst struct {
		name string
		db   *graph.DB
		rx   string
	}
	cycle := workload.Cycle("a", 3)
	eight := graph.MustParse("m a p\np a m\nm a q\nq a m")
	dag := workload.Layered(5, 3*scale, 3, "ab")
	items := []inst{
		{"3-cycle", cycle, "aaaa"},
		{"figure-eight", eight, "aaaa"},
		{"layered DAG", dag, "(a|b)(a|b)"},
	}
	for _, it := range items {
		rx := xregex.MustParse(it.rx)
		var counts [3]int
		for i, sem := range []pathsem.Semantics{pathsem.Arbitrary, pathsem.Simple, pathsem.Trail} {
			res, err := pathsem.EvalRPQ(it.db, rx, sem)
			if err != nil {
				return fail(t, err)
			}
			counts[i] = res.Len()
		}
		t.Rows = append(t.Rows, []string{it.name, it.rx,
			fmt.Sprint(counts[0]), fmt.Sprint(counts[1]), fmt.Sprint(counts[2])})
	}
	return t
}

// Registry lists every experiment in index order.
var Registry = []func(int) *Table{
	E01Figure1, E02Figure2, E03Theorem1, E04Theorem3,
	E05NormalForm, E06VsfEval, E07VsfFlat, E08BoundedEval,
	E09HittingSet, E10LogBounded, E11Figure5, E12Separations,
	E13Fig7, E14Lemma12, E15Lemma13, E16Lemma14,
	E17Ablations, E18PathSemantics,
}

// All runs every experiment at the given scale.
func All(scale int) []*Table {
	out := make([]*Table, len(Registry))
	for i, f := range Registry {
		out[i] = f(scale)
	}
	return out
}

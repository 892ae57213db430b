// Package exp implements the experiment harness: one function per
// experiment (E1–E18, listed in Registry), each regenerating a paper
// artefact (figure, theorem-level claim, or size bound) as a printable
// table. cmd/cxrpq-exp runs them all; bench_test.go wraps them as
// benchmarks. Scale 1 is the fast configuration used in benchmarks; higher
// scales enlarge the workloads.
package exp

import (
	"fmt"
	"strings"
	"time"

	"cxrpq/internal/crpq"
	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/reductions"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// Table is one experiment's result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Err    error
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Err != nil {
		fmt.Fprintf(&b, "ERROR: %v\n", t.Err)
		return b.String()
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

func fail(t *Table, err error) *Table { t.Err = err; return t }

// E01Figure1 evaluates the four CRPQs of Figure 1 on a genealogy graph.
func E01Figure1(scale int) *Table {
	t := &Table{ID: "E1", Title: "Figure 1: CRPQs G1–G4 on a genealogy graph",
		Header: []string{"query", "pattern", "answers", "time"}}
	db := workload.Genealogy(42, 30*scale)
	queries := []struct{ name, src string }{
		{"G1", "ans(v1, v2)\nv1 m : p\nm w : s\nv2 w : p"},
		{"G2", "ans(v1, v2)\nv1 v2 : p+|s+"},
		{"G3", "ans(v1)\nz v1 : p+\nz v1 : s+"},
		{"G4", "ans(v1, v2)\nz1 v1 : p+\nz1 v2 : p+\nz2 v1 : s+\nz2 v2 : s+"},
	}
	for _, qc := range queries {
		q, err := crpq.Parse(qc.src)
		if err != nil {
			return fail(t, err)
		}
		start := time.Now()
		res, err := q.Eval(db)
		if err != nil {
			return fail(t, err)
		}
		t.Rows = append(t.Rows, []string{qc.name, strings.ReplaceAll(qc.src, "\n", "; "),
			fmt.Sprint(res.Len()), ms(time.Since(start))})
	}
	return t
}

// E02Figure2 evaluates the four CXRPQs of Figure 2 with the strongest
// complete algorithm for their fragment.
func E02Figure2(scale int) *Table {
	t := &Table{ID: "E2", Title: "Figure 2: CXRPQs G1–G4, fragments and evaluation",
		Header: []string{"query", "fragment", "algorithm", "answers", "time"}}
	type item struct {
		name, src, algo string
		req             cxrpq.Request
		db              *graph.DB
	}
	viaBounded := func(k int) cxrpq.Request { return cxrpq.Request{Op: "eval", Semantics: "bounded", K: k} }
	viaVsf := cxrpq.Request{Op: "eval"}
	msgNet := workload.MessageNetwork(7, 8*scale, "ab", 2, 2, 2)
	items := []item{
		{"G1", "ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)+", "EvalBounded(k=1)", viaBounded(1),
			workload.Random(3, 10*scale, 25*scale, "abc")},
		{"G2", "ans(v1, v2, v3)\nv1 v2 : $x{aa|b}\nv2 v3 : $y{[^ab]*}\nv3 v1 : $x|$y", "EvalVsf", viaVsf,
			workload.Random(4, 8*scale, 20*scale, "abc")},
		{"G3", "ans(v1, v2)\nv1 v2 : $x{..+}\nv2 v1 : $y{..+}\nv1 w : ($x|$y)+\nv2 w : ($x|$y)+", "EvalBounded(k=2)", viaBounded(2),
			msgNet},
		{"G4", "ans(v1, v2)\nv1 v2 : a*($x{($y a*)|(b*$y)})$z\nw v1 : b*($y{c*|d*})\nw v2 : $z{$x|$y}|$z{a*}", "EvalVsf", viaVsf,
			workload.Random(5, 6*scale, 15*scale, "abcd")},
	}
	for _, it := range items {
		q, err := cxrpq.Parse(it.src)
		if err != nil {
			return fail(t, err)
		}
		start := time.Now()
		resp := cxrpq.Do(q, it.db, it.req)
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		t.Rows = append(t.Rows, []string{it.name, q.Fragment(), it.algo, fmt.Sprint(resp.Tuples.Len()), ms(time.Since(start))})
	}
	return t
}

// E03Theorem1 runs the NFA-intersection reduction (Theorem 1/3) for growing
// numbers of machines and cross-checks against the product-automaton oracle.
func E03Theorem1(scale int) *Table {
	t := &Table{ID: "E3", Title: "Theorem 1/3: NFA-intersection via single-edge CXRPQ (reduction vs oracle)",
		Header: []string{"k machines", "|D|", "D |= α^k_ni", "oracle", "agree", "time"}}
	maxK := 2 + scale
	for k := 1; k <= maxK; k++ {
		inst := reductions.RandomNFAs(int64(10+k), k, 3)
		db, err := inst.ToGraphDB()
		if err != nil {
			return fail(t, err)
		}
		q, err := inst.ToCXRPQ(true)
		if err != nil {
			return fail(t, err)
		}
		start := time.Now()
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool"})
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		el := time.Since(start)
		got, want := resp.OK, inst.IntersectionNonEmpty()
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprint(db.Size()),
			fmt.Sprint(got), fmt.Sprint(want), fmt.Sprint(got == want), ms(el)})
	}
	return t
}

// E04Theorem3 runs the NL-hardness reachability reduction at growing sizes.
func E04Theorem3(scale int) *Table {
	t := &Table{ID: "E4", Title: "Theorem 3/7: reachability via fixed CRPQ ab*aa (data complexity, NL-hardness side)",
		Header: []string{"n nodes", "|D|", "D |= q", "oracle", "agree", "time"}}
	for i := 1; i <= 4; i++ {
		n := 10 * i * scale
		inst := reductions.RandomReachability(int64(i), n, 2*n)
		db, q, err := inst.ToCRPQ()
		if err != nil {
			return fail(t, err)
		}
		start := time.Now()
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "bool"})
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		el := time.Since(start)
		got, want := resp.OK, inst.Reachable()
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(db.Size()),
			fmt.Sprint(got), fmt.Sprint(want), fmt.Sprint(got == want), ms(el)})
	}
	return t
}

// E05NormalForm reproduces the §5.3 blow-up: exponential normal-form growth
// for the chain x1{a}x2{x1x1}… versus quadratic growth for flat tuples
// (Lemma 8).
func E05NormalForm(scale int) *Table {
	t := &Table{ID: "E5", Title: "Lemmas 4-6/8 & §5.3: normal-form size, chain (exponential) vs flat (quadratic)",
		Header: []string{"n vars", "|chain|", "|NF(chain)|", "|flat|", "|NF(flat)|"}}
	maxN := 5 + scale
	for n := 2; n <= maxN; n++ {
		chainSrc := "$x1{a}"
		for i := 2; i <= n; i++ {
			chainSrc += fmt.Sprintf("$x%d{$x%d$x%d}", i, i-1, i-1)
		}
		chain := cxrpq.CXRE{xregex.MustParse(chainSrc)}
		_, cs, err := cxrpq.NormalForm(chain)
		if err != nil {
			return fail(t, err)
		}
		// flat but non-basic: each x_i's definition contains a reference of
		// the basic-definition variable y, and no x_i is referenced inside
		// another definition — Step 3 fires but stays quadratic (Lemma 8).
		flatSrc := "$y{a|b}"
		for i := 1; i <= n; i++ {
			flatSrc += fmt.Sprintf("$x%d{a*($y)b*}", i)
		}
		for i := 1; i <= n; i++ {
			flatSrc += fmt.Sprintf("$x%d", i)
		}
		flat := cxrpq.CXRE{xregex.MustParse(flatSrc)}
		if !flat.FlatVars() {
			return fail(t, fmt.Errorf("E5 flat family must be flat"))
		}
		_, fs, err := cxrpq.NormalForm(flat)
		if err != nil {
			return fail(t, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n),
			fmt.Sprint(cs.Input), fmt.Sprint(cs.AfterStep3),
			fmt.Sprint(fs.Input), fmt.Sprint(fs.AfterStep3)})
	}
	return t
}

// E06VsfEval measures CXRPQ^vsf evaluation against growing databases
// (Theorem 2: NL ⇒ polynomial data complexity for the deterministic
// simulation).
func E06VsfEval(scale int) *Table {
	t := &Table{ID: "E6", Title: "Theorem 2: CXRPQ^vsf evaluation, runtime vs |D| (fixed query)",
		Header: []string{"|D|", "answers", "time"}}
	q := cxrpq.MustParse(`
ans(v1, v2)
v1 v2 : $x{aa|b}
v2 v3 : c*
v3 v1 : $x|c
`)
	for i := 1; i <= 4; i++ {
		n := 6 * i * scale
		db := workload.Random(9, n, 3*n, "abc")
		start := time.Now()
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval"})
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(db.Size()), fmt.Sprint(resp.Tuples.Len()), ms(time.Since(start))})
	}
	return t
}

// E07VsfFlat verifies the Lemma 8 polynomial normal form and measures
// CXRPQ^vsf,fl evaluation (Theorem 5).
func E07VsfFlat(scale int) *Table {
	t := &Table{ID: "E7", Title: "Theorem 5 / Lemma 8: CXRPQ^vsf,fl — polynomial normal form and evaluation",
		Header: []string{"n vars", "|q|", "|NF|", "NF/|q|^2", "eval time"}}
	db := workload.Random(11, 8*scale, 20*scale, "ab")
	maxN := 3 + scale
	for n := 2; n <= maxN; n++ {
		// flat tuple: n variables defined on edge 1, referenced on edge 2
		var defs, refs strings.Builder
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&defs, "$v%d{a|b}", i)
			fmt.Fprintf(&refs, "$v%d", i)
		}
		q, err := cxrpq.Parse(fmt.Sprintf("ans(x, y)\nx m : %s\nm y : %s|a*", defs.String(), refs.String()))
		if err != nil {
			return fail(t, err)
		}
		if !q.IsVStarFreeFlat() {
			return fail(t, fmt.Errorf("E7 query not in CXRPQ^vsf,fl"))
		}
		nf, stats, err := cxrpq.NormalForm(q.CXRE())
		if err != nil {
			return fail(t, err)
		}
		_ = nf
		start := time.Now()
		if resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}); resp.Err != nil {
			return fail(t, resp.Err)
		}
		ratio := float64(stats.AfterStep3) / float64(stats.Input*stats.Input)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(stats.Input),
			fmt.Sprint(stats.AfterStep3), fmt.Sprintf("%.3f", ratio), ms(time.Since(start))})
	}
	return t
}

// E08BoundedEval measures CXRPQ^≤k evaluation: runtime vs |D| for fixed k,
// and vs k for fixed D (Theorem 6: NL data complexity, NP combined).
func E08BoundedEval(scale int) *Table {
	t := &Table{ID: "E8", Title: "Theorem 6: CXRPQ^≤k evaluation, runtime vs |D| and vs k",
		Header: []string{"|D|", "k", "answers", "time"}}
	q := cxrpq.MustParse(`
ans(s, t)
s t : $x{(a|b)+}c
t s : $x+|b
`)
	for i := 1; i <= 3; i++ {
		n := 5 * i * scale
		db := workload.Random(13, n, 3*n, "abc")
		start := time.Now()
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2})
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(db.Size()), "2", fmt.Sprint(resp.Tuples.Len()), ms(time.Since(start))})
	}
	db := workload.Random(13, 5*scale, 15*scale, "abc")
	for k := 1; k <= 3; k++ {
		start := time.Now()
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: k})
		if resp.Err != nil {
			return fail(t, resp.Err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(db.Size()), fmt.Sprint(k), fmt.Sprint(resp.Tuples.Len()), ms(time.Since(start))})
	}
	return t
}

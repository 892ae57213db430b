package repro

// One benchmark per experiment of internal/exp (E1–E18), plus engine
// micro-benchmarks. Each experiment benchmark runs the exact workload that
// regenerates the corresponding paper artefact; cmd/cxrpq-exp prints the
// same tables.

import (
	"fmt"
	"testing"

	"cxrpq/internal/automata"
	"cxrpq/internal/crpq"
	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/exp"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/reductions"
	"cxrpq/internal/separations"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

func benchTable(b *testing.B, f func(int) *exp.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := f(1)
		if t.Err != nil {
			b.Fatal(t.Err)
		}
	}
}

func BenchmarkE01Figure1(b *testing.B)       { benchTable(b, exp.E01Figure1) }
func BenchmarkE02Figure2(b *testing.B)       { benchTable(b, exp.E02Figure2) }
func BenchmarkE03Theorem1(b *testing.B)      { benchTable(b, exp.E03Theorem1) }
func BenchmarkE04Theorem3(b *testing.B)      { benchTable(b, exp.E04Theorem3) }
func BenchmarkE05NormalForm(b *testing.B)    { benchTable(b, exp.E05NormalForm) }
func BenchmarkE06VsfEval(b *testing.B)       { benchTable(b, exp.E06VsfEval) }
func BenchmarkE07VsfFlat(b *testing.B)       { benchTable(b, exp.E07VsfFlat) }
func BenchmarkE08BoundedEval(b *testing.B)   { benchTable(b, exp.E08BoundedEval) }
func BenchmarkE09HittingSet(b *testing.B)    { benchTable(b, exp.E09HittingSet) }
func BenchmarkE10LogBounded(b *testing.B)    { benchTable(b, exp.E10LogBounded) }
func BenchmarkE11Figure5(b *testing.B)       { benchTable(b, exp.E11Figure5) }
func BenchmarkE12Separations(b *testing.B)   { benchTable(b, exp.E12Separations) }
func BenchmarkE13Fig7(b *testing.B)          { benchTable(b, exp.E13Fig7) }
func BenchmarkE14Lemma12(b *testing.B)       { benchTable(b, exp.E14Lemma12) }
func BenchmarkE15Lemma13(b *testing.B)       { benchTable(b, exp.E15Lemma13) }
func BenchmarkE16Lemma14(b *testing.B)       { benchTable(b, exp.E16Lemma14) }
func BenchmarkE17Ablations(b *testing.B)     { benchTable(b, exp.E17Ablations) }
func BenchmarkE18PathSemantics(b *testing.B) { benchTable(b, exp.E18PathSemantics) }

// --- engine micro-benchmarks ---

func BenchmarkCRPQEval(b *testing.B) {
	db := workload.Layered(9, 12, 5, "abc")
	q := crpq.MustParse("ans(x, y)\nx m : a(b|c)*\nm y : c+")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareEvalCRPQ runs BenchmarkCRPQEval's text on its graph the
// way a crpq_cold request does in-process: parse and prepare a new plan, bind
// it to the database and evaluate it through Session.Do.
func BenchmarkPrepareEvalCRPQ(b *testing.B) {
	db := workload.Layered(9, 12, 5, "abc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := cxrpq.PrepareSrc("ans(x, y)\nx m : a(b|c)*\nm y : c+")
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Bind(db).Do(cxrpq.Request{Op: "eval"}).Err; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualityProduct(b *testing.B) {
	db := workload.Random(17, 12, 30, "ab")
	q := cxrpq.MustParse("ans(s, t, s2, t2)\ns t : $x{(a|b)(a|b)}\ns2 t2 : $x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cxrpq.EvalSimple(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualLengthRelation(b *testing.B) {
	q := separations.QAnBn()
	db := separations.DnMPaths(8, 8, 'b')
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecrpq.EvalBool(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVsfEval(b *testing.B) {
	db := workload.Layered(9, 8, 4, "abc")
	q := cxrpq.MustParse("ans(v1, v2)\nv1 v2 : $x{aa|b}\nv2 v3 : c*\nv3 v1 : $x|c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}).Err; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundedEval(b *testing.B) {
	db := workload.Layered(13, 6, 3, "abc")
	q := cxrpq.MustParse("ans(s, t)\ns t : $x{(a|b)+}c\nt s : $x+|b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}).Err; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalBounded exercises the prefix-incremental bounded engine on a
// three-atom query whose variables spread across edges, so atoms become
// determined (and prune) at different enumeration depths and the relation
// cache is shared across mappings.
func BenchmarkEvalBounded(b *testing.B) {
	db := workload.Random(19, 14, 40, "abc")
	q := cxrpq.MustParse("ans(s, t)\ns m : $x{(a|b)+}\nm t : $y{a|c}b?\nt s : ($x|$y)c*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}).Err; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9HittingSet runs the Theorem 7 reduction end-to-end on the
// hardest scale-1 instance (10 string variables under CXRPQ^≤1 semantics) —
// the suite's former perf cliff and the headline workload of the bounded
// engine.
func BenchmarkE9HittingSet(b *testing.B) {
	h := &reductions.HittingSetInstance{N: 3, Sets: [][]int{{0}, {2}}, K: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := h.SolveViaReduction()
		if err != nil {
			b.Fatal(err)
		}
		if !got {
			b.Fatal("instance has a hitting set")
		}
	}
}

func BenchmarkNormalForm(b *testing.B) {
	c := cxrpq.CXRE{
		xregex.MustParse("$x{a*$y{b*}a$z}|($x{b*}($z|$y{c*}))"),
		xregex.MustParse("(a*|$x)$z{$y(a|b)}"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cxrpq.NormalForm(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXregexMatch(b *testing.B) {
	n := xregex.MustParse("a*$x1{a*$x2{(a|b)*}b*a*}$x2*(a|b)*$x1")
	w := "aaaa" + "baba" + "ababab" + "bababa" + "a"
	sigma := []rune("ab")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !xregex.MatchBool(n, w, sigma) {
			b.Fatal("should match")
		}
	}
}

// --- ablation benchmarks (the design choices E17 measures) ---

// Ablation: the bounded engine's candidate pruning (path labels + definition-body
// filters) vs the literal Theorem 6 blind guess over (Σ^≤k)^n.
func BenchmarkAblationBoundedPruned(b *testing.B) {
	db := workload.Random(13, 6, 18, "abc")
	q := cxrpq.MustParse("ans(s, t)\ns t : $x{(a|b)+}c\nt s : $x+|b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}).Err; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBoundedNaive(b *testing.B) {
	db := workload.Random(13, 6, 18, "abc")
	q := cxrpq.MustParse("ans(s, t)\ns t : $x{(a|b)+}c\nt s : $x+|b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cxrpq.EvalBoundedNaive(q, db, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: specialized lock-step equality product vs driving the generic
// ⊥-padded relation engine with an explicit equality NFA.
func BenchmarkAblationEqualitySpecialized(b *testing.B) {
	db := workload.Random(17, 10, 24, "ab")
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecrpq.Eval(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEqualityGenericNFA(b *testing.B) {
	db := workload.Random(17, 10, 24, "ab")
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans(x1, y1, x2, y2)\nx1 y1 : (a|b)+\nx2 y2 : (a|b)+"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: ecrpq.EqualityNFA(2, []rune("ab"))}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecrpq.Eval(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupNarrowing evaluates the Lemma 13 members of two vstar-free
// shapes — a reference nested in a definition, and a reference closing a
// cycle — on random graphs of 20 and 64 nodes, so that nearly all the time
// goes to relation groups binding their free sources: from partner rows of
// bound endpoints where the plan has them, most bound group first.
func BenchmarkGroupNarrowing(b *testing.B) {
	members := map[string]string{
		"nested": "ans(x, z)\nw0 x : c|a\nx _x_1_0 : a*\n_x_1_0 _x_1_1 : .*\n_x_1_1 y : b*\ny _y_2_0 : .*\n_y_2_0 z : .*\nrel equality 3 5\nrel equality 0 2 4",
		"fl":     "ans(x, y)\nx y : (a|b)+\ny z : c+\nz x : .*\nrel equality 0 2",
	}
	for _, g := range []struct {
		nodes, edges int
		labels       string
	}{{20, 70, "abcdefg"}, {64, 320, "abcdefghij"}} {
		db := workload.Random(23, g.nodes, g.edges, g.labels)
		for _, name := range []string{"nested", "fl"} {
			q := ecrpq.MustParseQuery(members[name], db.Alphabet())
			b.Run(fmt.Sprintf("%s/n=%d", name, g.nodes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ecrpq.Eval(q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkRegexCompile(b *testing.B) {
	n := xregex.MustParse("a(b|c)*([^a]|bc)+d?")
	sigma := []rune("abcd")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xregex.Compile(n, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine core micro-benchmarks ---

// BenchmarkEngineReach measures the integer-interned product-reachability
// core on a mid-sized random graph (single source per iteration).
func BenchmarkEngineReach(b *testing.B) {
	db := workload.Random(7, 2000, 8000, "abc")
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("a(b|c)*(a|b)+"), []rune("abc"))
	c := automata.NewSubsetCache(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Reach(ix, c, i%db.NumNodes(), true, engine.ReachOpts{})
	}
}

// reachPerSource is the per-source baseline of the batched kernel: one
// single-source search per source, one after another.
func reachPerSource(ix *graph.Index, c *automata.SubsetCache, srcs []int) [][]int {
	out := make([][]int, len(srcs))
	for i, src := range srcs {
		out[i], _ = engine.Reach(ix, c, src, true, engine.ReachOpts{})
	}
	return out
}

// BenchmarkReachBatch measures the multi-source kernel on a gMark-style
// workload against one search per source: "persource" is one BFS per
// source, "batch" the MS-BFS batches of engine.ReachBatchEx. Batching is an
// algorithmic win (64 sources share each product-edge sweep).
func BenchmarkReachBatch(b *testing.B) {
	db := workload.GMark(7, 2400)
	ix := db.Index()
	m := xregex.MustCompile(xregex.MustParse("a(a|b)*"), db.Alphabet())
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	b.Run("persource", func(b *testing.B) {
		c := automata.NewSubsetCache(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reachPerSource(ix, c, srcs)
		}
	})
	b.Run("batch", func(b *testing.B) {
		c := automata.NewSubsetCache(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.ReachBatchEx(ix, c, srcs, true, engine.ReachOpts{})
		}
	})
}

// BenchmarkStreamFirstRow measures the streaming layer on a high-output
// gMark-style workload: "first" pulls a single row through Session.Stream on
// a session-cold cache (the time-to-first-row fast path — lazy chunked source
// sweeps compute only what one row needs), "drain" pulls the entire relation
// page by page, and "eval" materializes it with Session.Do.
func BenchmarkStreamFirstRow(b *testing.B) {
	db := workload.GMark(7, 1200)
	db.Index() // shared state: warm outside the timings
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, y)\nx y : a(a|b)*"))
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if rows := cur.Fetch(1); len(rows) != 1 {
				b.Fatal("no first row")
			}
			cur.Close()
		}
	})
	b.Run("drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for {
				if page := cur.Fetch(4096); len(page) < 4096 {
					break
				}
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			cur.Close()
		}
	})
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := plan.Bind(db).Do(cxrpq.Request{Op: "eval"}).Err; err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnyK measures the incremental any-k ranked enumerator on a
// gMark-style workload: "first/anyk" pulls one ranked row through the
// priority-queue producer on a session-cold bind, and "top64/anyk" pulls a
// 64-row ranked prefix.
func BenchmarkAnyK(b *testing.B) {
	db := workload.GMark(7, 1200)
	db.Index() // shared label index: warm outside the timings
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+"))
	b.Run("first/anyk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{Ranked: true})
			if err != nil {
				b.Fatal(err)
			}
			if rows := cur.Fetch(1); len(rows) != 1 {
				b.Fatal("no first row")
			}
			cur.Close()
		}
	})
	b.Run("top64/anyk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{Ranked: true, Limit: 64})
			if err != nil {
				b.Fatal(err)
			}
			if rows := cur.Fetch(64); len(rows) != 64 {
				b.Fatalf("ranked prefix delivered %d rows", len(rows))
			}
			cur.Close()
		}
	})
}

// BenchmarkEvalChainMaterialize times the materialising join of crpq_cold's
// chain shapes — chain2, chain3 and chain2_all, atom forms L, LM, L|M and L+
// — on a warm atom store over a 5 000-node gMark-style graph: one op
// evaluates the three texts, ~95 000 answer rows. After the warm-up every
// table a join reads is complete but chain3's b+, which only a bound step
// reads, so what is left per op is the join, the frontier pass where a
// table is incomplete, and the settling of the rows.
func BenchmarkEvalChainMaterialize(b *testing.B) {
	db := workload.GMark(11, 5000)
	qs := []*crpq.Query{
		crpq.MustParse("ans(x, z)\nx y : cb\ny z : c|b"),
		crpq.MustParse("ans(w, z)\nw x : b\nx y : cb\ny z : b+"),
		crpq.MustParse("ans(x, y, z)\nx y : c|b\ny z : b"),
	}
	rows := 0
	for _, q := range qs { // the warm-up
		res, err := q.Eval(db)
		if err != nil {
			b.Fatal(err)
		}
		rows += res.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := q.Eval(db); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(rows), "rows/op")
}

package ecrpq_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// TestSupportReadDifferential: answering an atom from its support must not
// change what any entry point returns. Over the shapes of workload.RandomQuery
// (a two- or three-atom chain p→m→(n→)q with the output on nothing, p, p and
// q, or p and m — so dangling, shared and output endpoints all occur) under
// random classical labels, every operation runs with the support read on and
// forced off: Eval with the default gates (frontier pass) and with the
// Yannakakis program forced, the lazy stream, the Boolean run, Check on every
// answer and on near misses, and the ranked streams under unit cost and under
// a weight — whose (tuple, cost) sequences must be byte-equal, the support
// never applying to a ranked plan.
func TestSupportReadDifferential(t *testing.T) {
	labels := []string{"a", "b", "a+", "b+", "(a|b)+", "ab", "a*b", "(ab)*", "b?a", "a|bb", "(a|b)(a|b)", "ba*"}
	weight := engine.Weight(func(l rune) int32 { return 1 + 3*(l-'a') })
	r := workload.NewRNG(5)
	differ := 0
	for qi := 0; qi < 60; qi++ {
		g := workload.RandomQuery(r, false).Pattern.Clone()
		for i := range g.Edges {
			g.Edges[i].Label = xregex.MustParse(labels[r.Intn(len(labels))])
		}
		if qi%7 == 3 {
			g.Edges[len(g.Edges)-1].From = g.Edges[len(g.Edges)-1].To // a self-loop on q; the chain ends dangling
		}
		q := &ecrpq.Query{Pattern: g}
		db := workload.Random(int64(100+qi), 12+qi%9, 20+2*(qi%13), "ab")

		run := func() (out []string) {
			add := func(op string, v any, err error) {
				if err != nil {
					t.Fatalf("query %d %s: %v\n%s", qi, op, err, g)
				}
				out = append(out, fmt.Sprintf("%s: %v", op, v))
			}
			sorted := func(s *pattern.TupleSet) []pattern.Tuple {
				if s == nil {
					return nil // add reports the error
				}
				return s.Sorted()
			}
			res, err := ecrpq.Eval(q, db)
			add("eval", sorted(res), err)
			yan, err := ecrpq.EvalWith(q, db, forced)
			add("eval/yannakakis", sorted(yan), err)
			if !res.Equal(yan) {
				t.Fatalf("query %d: Yannakakis program %v, backtracking %v\n%s", qi, yan.Sorted(), res.Sorted(), g)
			}
			var lazy []string
			err = ecrpq.EvalStream(q, db, ecrpq.Options{}, func(tu []int32, cost int) bool {
				lazy = append(lazy, fmt.Sprint(tu, cost))
				return true
			})
			sort.Strings(lazy)
			add("stream", lazy, err)
			if len(lazy) != res.Len() {
				t.Fatalf("query %d: the lazy stream yielded %d tuples, Eval %d\n%s", qi, len(lazy), res.Len(), g)
			}
			ok, err := ecrpq.EvalBool(q, db)
			add("bool", ok, err)
			for _, tu := range res.Sorted() {
				ok, err := ecrpq.Check(q, db, tu)
				add(fmt.Sprint("check", tu), ok, err)
				if len(tu) > 0 {
					miss := append(pattern.Tuple(nil), tu...)
					miss[len(miss)-1] = (miss[len(miss)-1] + 1) % db.NumNodes()
					ok, err = ecrpq.Check(q, db, miss)
					add(fmt.Sprint("check", miss), ok, err)
				}
			}
			for name, w := range map[string]engine.Weight{"ranked": nil, "weighted": weight} {
				var seq []string // emission order matters: nondecreasing cost, ties in enumeration order
				err := ecrpq.EvalStream(q, db, ecrpq.Options{Ranked: true, Weight: w}, func(tu []int32, cost int) bool {
					seq = append(seq, fmt.Sprint(tu, cost))
					return true
				})
				add(name, seq, err)
			}
			sort.Strings(out[len(out)-2:]) // map order
			return out
		}
		on := run()
		was := ecrpq.SetSupportReads(false)
		before := engine.ReachBatchStats()
		off := run()
		listed := engine.ReachBatchStats().Sources - before.Sources
		ecrpq.SetSupportReads(was)
		if a, b := strings.Join(on, "\n"), strings.Join(off, "\n"); a != b {
			t.Fatalf("query %d: the support read changed an answer\n%s\non:\n%s\noff:\n%s", qi, g, a, b)
		}
		before = engine.ReachBatchStats()
		run()
		if engine.ReachBatchStats().Sources-before.Sources != listed {
			differ++
		}
	}
	if differ < 20 {
		t.Fatalf("the support read changed the kernel work of %d of 60 queries: the shapes do not exercise it", differ)
	}
}

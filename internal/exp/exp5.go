package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// e22Exprs are the classical regexes of the batched-kernel experiment:
// hub-heavy transitive closure, an alternation walk, and a chain-following
// expression — together they exercise both the high-fanout 'a' hubs and the
// long 'c' chains that stress the level-synchronous frontier.
var e22Exprs = []string{"a(a|b)*", "(a|b)+c?", "c*a(b|c)*"}

// E22BatchedReach measures the multi-source product-reachability kernel on a
// gMark-style scaled workload: for each expression the all-sources relation
// is computed by the per-source BFS fan (one engine.Reach per source across
// engine.Fan) and by the MS-BFS batches of engine.ReachBatchEx, asserting
// that the two agree exactly. The batching win is algorithmic (64 sources
// share one edge sweep), so the speedup holds even at GOMAXPROCS=1.
func E22BatchedReach(scale int) *Table {
	t := &Table{ID: "E22", Title: "MS-BFS reachability: ReachBatchEx vs per-source Reach fan (gMark-style)",
		Header: []string{"expr", "nodes", "edges", "reachall", "batch", "speedup"}}
	db := workload.GMark(7, 1200*scale)
	ix := db.Index()
	sigma := db.Alphabet()
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	for _, src := range e22Exprs {
		nfa, err := xregex.Compile(xregex.MustParse(src), sigma)
		if err != nil {
			return fail(t, err)
		}
		// Each mode gets a fresh subset cache so both pay the same
		// on-the-fly determinization cost.
		startBase := time.Now()
		base := make([][]int, len(srcs))
		baseCache := automata.NewSubsetCache(nfa)
		engine.Fan(len(srcs), func(i int) {
			base[i], _ = engine.Reach(ix, baseCache, srcs[i], true, engine.ReachOpts{})
		})
		baseD := time.Since(startBase)

		startBatch := time.Now()
		batch := engine.ReachBatchEx(ix, automata.NewSubsetCache(nfa), srcs, true, engine.ReachOpts{}).Hits
		batchD := time.Since(startBatch)

		for u := range base {
			if !sameInts(base[u], batch[u]) {
				return fail(t, fmt.Errorf("%s: source %d: batched kernel diverged from per-source fan", src, u))
			}
		}
		t.Rows = append(t.Rows, []string{src, fmt.Sprint(db.NumNodes()), fmt.Sprint(db.NumEdges()),
			ms(baseD), ms(batchD),
			fmt.Sprintf("%.1fx", float64(baseD.Nanoseconds())/float64(max64(batchD.Nanoseconds(), 1)))})
	}
	return t
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

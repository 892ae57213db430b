package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// e22Exprs are the classical regexes of the sharded-kernel experiment:
// hub-heavy transitive closure, an alternation walk, and a chain-following
// expression — together they exercise both the high-fanout 'a' hubs the
// degree-balanced partition splits around and the long 'c' chains that
// stress the level-synchronous frontier.
var e22Exprs = []string{"a(a|b)*", "(a|b)+c?", "c*a(b|c)*"}

// E22ShardedReach measures the sharded multi-source product-reachability
// kernel (PR 6) on a gMark-style scaled workload: for each expression the
// all-sources relation is computed three ways — the historical per-source
// BFS fan (one engine.Reach per source across engine.Fan), the batched
// kernel on a single shard (MS-BFS source batching only), and the batched
// kernel on the full degree-balanced partition (batching + frontier
// exchange) — asserting all three agree exactly. The batching win is
// algorithmic (64 sources share one edge sweep), so the speedup holds even
// at GOMAXPROCS=1.
func E22ShardedReach(scale int) *Table {
	// The sharded column always runs with at least 4 shards so the
	// frontier-exchange machinery is measured even on a single-core runner
	// (where Shards() would collapse to 1 and alias the batch-x1 column).
	shards := engine.Shards()
	if shards < 4 {
		shards = 4
	}
	t := &Table{ID: "E22", Title: "Sharded MS-BFS reachability: ReachBatch vs per-source Reach fan (gMark-style)",
		Header: []string{"expr", "nodes", "edges", "reachall", "batch x1", fmt.Sprintf("batch x%d", shards), "speedup"}}
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
		// Each mode gets a fresh subset cache so all three pay the same
		// on-the-fly determinization cost.
		startBase := time.Now()
		base := make([][]int, len(srcs))
		baseCache := automata.NewSubsetCache(nfa)
		engine.Fan(len(srcs), func(i int) {
			base[i], _ = engine.Reach(ix, baseCache, srcs[i], true, engine.ReachOpts{})
		})
		baseD := time.Since(startBase)

		startOne := time.Now()
		one := engine.ReachBatch(ix, db.Partition(1), automata.NewSubsetCache(nfa), srcs, true)
		oneD := time.Since(startOne)

		startSharded := time.Now()
		sharded := engine.ReachBatch(ix, db.Partition(shards), automata.NewSubsetCache(nfa), srcs, true)
		shardedD := time.Since(startSharded)

		for u := range base {
			if !sameInts(base[u], one[u]) || !sameInts(base[u], sharded[u]) {
				return fail(t, fmt.Errorf("%s: source %d: batched kernel diverged from per-source fan", src, u))
			}
		}
		t.Rows = append(t.Rows, []string{src, fmt.Sprint(db.NumNodes()), fmt.Sprint(db.NumEdges()),
			ms(baseD), ms(oneD), ms(shardedD),
			fmt.Sprintf("%.1fx", float64(baseD.Nanoseconds())/float64(max64(shardedD.Nanoseconds(), 1)))})
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

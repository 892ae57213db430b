package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/workload"
)

// e23Exprs are the high-output reachability expressions of the streaming
// experiment: transitive-closure-style patterns on a gMark-style graph whose
// answer sets are quadratic-ish in the node count, so full materialization
// pays for every pair while the first row is one shallow BFS probe away.
var e23Exprs = []string{"a(a|b)*", "(a|b)+"}

// E23TimeToFirstRow measures the pull-based streaming layer (PR 7) against
// full materialization on a high-output workload: for each expression the
// answer relation is produced three ways on session-cold caches — the first
// row alone through Session.Stream (the any-k fast path: lazy chunked source
// sweeps compute only what the consumer pulls), the whole relation by
// draining the same kind of stream page by page, and the whole relation
// materialized by Session.Eval — asserting the drain and the materialized
// set have identical cardinality. The last column is the ttfr speedup
// (full/ttfr, the streaming win).
func E23TimeToFirstRow(scale int) *Table {
	t := &Table{ID: "E23", Title: "Streaming any-k: time-to-first-row vs full materialization (gMark-style)",
		Header: []string{"expr", "rows", "ttfr", "drain", "full eval", "speedup"}}
	db := workload.GMark(7, 1200*scale)
	db.Index() // the label index is shared state: warm it outside every timing

	for _, src := range e23Exprs {
		qsrc := fmt.Sprintf("ans(x, y)\nx y : %s", src)
		plan, err := cxrpq.PrepareSrc(qsrc)
		if err != nil {
			return fail(t, err)
		}

		// First row, session-cold: the lazy stream computes only the source
		// chunks the single pulled row needs.
		startTTFR := time.Now()
		cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{})
		if err != nil {
			return fail(t, err)
		}
		first := cur.Fetch(1)
		ttfr := time.Since(startTTFR)
		cur.Close()
		if len(first) == 0 {
			return fail(t, fmt.Errorf("%s: empty result, not a streaming workload", src))
		}

		// Full drain through the cursor, fresh session: page after page
		// until exhaustion — the throughput cost of pull-based delivery.
		startDrain := time.Now()
		cur, err = plan.Bind(db).Stream(cxrpq.StreamOptions{})
		if err != nil {
			return fail(t, err)
		}
		drained := 0
		for {
			page := cur.Fetch(4096)
			drained += len(page)
			if len(page) < 4096 {
				break
			}
		}
		drainD := time.Since(startDrain)
		if err := cur.Err(); err != nil {
			return fail(t, err)
		}
		cur.Close()

		// Full materialization, fresh session: the historical eval path.
		startFull := time.Now()
		full, err := plan.Bind(db).Eval()
		if err != nil {
			return fail(t, err)
		}
		fullD := time.Since(startFull)
		if drained != full.Len() {
			return fail(t, fmt.Errorf("%s: drained %d rows, materialized %d", src, drained, full.Len()))
		}

		t.Rows = append(t.Rows, []string{src, fmt.Sprint(full.Len()),
			ms(ttfr), ms(drainD), ms(fullD),
			fmt.Sprintf("%.0fx", float64(fullD.Nanoseconds())/float64(max64(ttfr.Nanoseconds(), 1)))})
	}
	return t
}

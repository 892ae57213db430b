package cxrpq_test

// Tests for the pull-based streaming layer (Session.Stream): a drained
// cursor must agree exactly with the materialized evaluation of the same
// semantics (differential property over the random query/graph generators,
// for every fragment dispatch and for the ≤k engine), ranked streams must
// yield nondecreasing witness costs with top-k a prefix of the full ranked
// order, limits and page sizes must not change the answer set, canceled
// budgets must neither hang nor yield unsound rows, and abandoned cursors
// interleaved with ApplyDelta writers must be race-free (a producer runs
// only inside a fetch; run with -race).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// pageRows reads a FetchRows page the way the server does, row by row.
func pageRows(p pattern.Rows) []cxrpq.Row {
	var rows []cxrpq.Row
	for i := 0; i < p.N; i++ {
		row := cxrpq.Row{Tuple: make(pattern.Tuple, p.Arity)}
		for j, v := range p.Row(i) {
			row.Tuple[j] = int(v)
		}
		if p.Costs != nil {
			row.Cost = int(p.Costs[i])
		}
		rows = append(rows, row)
	}
	return rows
}

// drainCursor pulls the whole stream with the given page size (short page =
// exhausted), failing on evaluation errors. Pages come alternately through
// Fetch and through FetchRows, so every suite that drains exercises both.
func drainCursor(t *testing.T, cur *cxrpq.Cursor, page int) []cxrpq.Row {
	t.Helper()
	var rows []cxrpq.Row
	for i := 0; ; i++ {
		var p []cxrpq.Row
		if i%2 == 0 {
			p = cur.Fetch(page)
		} else {
			p = pageRows(cur.FetchRows(page))
		}
		rows = append(rows, p...)
		if len(p) < page {
			break
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return rows
}

func rowSet(rows []cxrpq.Row) *pattern.TupleSet {
	s := pattern.NewTupleSet()
	for _, r := range rows {
		s.Add(r.Tuple)
	}
	return s
}

// Property: a drained unranked stream equals the materialized evaluation of
// the same semantics — across fragments (auto dispatch where Eval is
// defined, bounded everywhere), page sizes, and cache states (stream before
// and after the materialized call).
func TestStreamMatchesEval(t *testing.T) {
	pages := []int{1, 3, 7, 1024}
	check := func(seed int64, q *cxrpq.Query, db *graph.DB) {
		sess := cxrpq.MustPrepare(q).Bind(db)
		page := pages[int(seed)%len(pages)]

		checkAgainst := func(opts cxrpq.StreamOptions, want *pattern.TupleSet, name string) {
			cur, err := sess.Stream(opts)
			if err != nil {
				t.Fatalf("seed %d: Stream(%s): %v\nquery:\n%s", seed, name, err, q.Pattern)
			}
			rows := drainCursor(t, cur, page)
			if cur.Truncated() {
				t.Fatalf("seed %d: %s stream truncated without a budget", seed, name)
			}
			if got := rowSet(rows); !got.Equal(want) {
				t.Fatalf("seed %d: %s stream %d tuples, eval %d tuples\nquery:\n%s",
					seed, name, got.Len(), want.Len(), q.Pattern)
			}
			if int64(len(rows)) != cur.RowsStreamed() {
				t.Fatalf("seed %d: RowsStreamed=%d, drained %d", seed, cur.RowsStreamed(), len(rows))
			}
		}

		// Bounded semantics: defined for every query. Even seeds stream on a
		// cold session, odd ones after the materialized call filled the cache.
		boundedOpts := cxrpq.StreamOptions{Semantics: "bounded", K: 1}
		if seed%2 == 0 {
			cold := cxrpq.MustPrepare(q).Bind(db)
			cur, err := cold.Stream(boundedOpts)
			if err != nil {
				t.Fatalf("seed %d: Stream(bounded, cold): %v", seed, err)
			}
			if got, want := rowSet(drainCursor(t, cur, page)), mustEvalBounded(t, cold, 1, seed); !got.Equal(want) {
				t.Fatalf("seed %d: cold bounded stream %d tuples, eval %d\nquery:\n%s", seed, got.Len(), want.Len(), q.Pattern)
			}
		}
		checkAgainst(boundedOpts, mustEvalBounded(t, sess, 1, seed), "bounded(cached)")

		// Auto dispatch: only where Eval is defined for the fragment. Fresh
		// binds, so that the stream runs its producer instead of paging the
		// cached answer.
		if want, err := tuples(sess.Do(cxrpq.Request{Op: "eval"})); err == nil {
			checkAgainst(cxrpq.StreamOptions{}, want, "auto(cached)")
			cur, err := cxrpq.MustPrepare(q).Bind(db).Stream(cxrpq.StreamOptions{})
			if err != nil {
				t.Fatalf("seed %d: Stream(auto, cold): %v", seed, err)
			}
			if got := rowSet(drainCursor(t, cur, page)); !got.Equal(want) {
				t.Fatalf("seed %d: cold auto stream %d tuples, eval %d\nquery:\n%s", seed, got.Len(), want.Len(), q.Pattern)
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		r := workload.NewRNG(seed)
		q := workload.RandomQuery(r, r.Intn(4) != 0)
		nodes := 3 + r.Intn(3)
		check(seed, q, workload.Random(seed^0x51e4, nodes, nodes+r.Intn(nodes+3), "ab"))
	}
	// High-output inputs: transitive-closure-style atoms on a gMark-style
	// graph, thousands of rows through many pages.
	gmark := workload.GMark(7, 300)
	for i, src := range []string{"ans(x, y)\nx y : a(a|b)*", "ans(x, y)\nx y : (a|b)+"} {
		check(int64(3+i), cxrpq.MustParse(src), gmark) // page sizes 1024 and 1
	}
}

func mustEvalBounded(t *testing.T, sess *cxrpq.Session, k int, seed int64) *pattern.TupleSet {
	t.Helper()
	res, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatalf("seed %d: bounded eval: %v", seed, err)
	}
	return res
}

// Property: ranked streams yield the same tuple set as the unranked
// evaluation, with nondecreasing witness costs; Limit selects a prefix of
// the full ranked order (top-k); and using Next instead of Fetch sees the
// same sequence.
func TestStreamRanked(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := workload.NewRNG(seed ^ 0x9a9a)
		q := workload.RandomQuery(r, true)
		db := workload.Random(seed^0x3c3c, 4, 8, "ab")
		sess := cxrpq.MustPrepare(q).Bind(db)

		want := mustEvalBounded(t, sess, 1, seed)
		cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1, Ranked: true})
		if err != nil {
			t.Fatalf("seed %d: Stream ranked: %v", seed, err)
		}
		rows := drainCursor(t, cur, 5)
		if got := rowSet(rows); !got.Equal(want) {
			t.Fatalf("seed %d: ranked stream %d tuples, eval %d\nquery:\n%s",
				seed, got.Len(), want.Len(), q.Pattern)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Cost < rows[i-1].Cost {
				t.Fatalf("seed %d: ranked costs decrease at %d: %d after %d",
					seed, i, rows[i].Cost, rows[i-1].Cost)
			}
		}
		if len(rows) > 1 {
			k := 1 + int(seed)%len(rows)
			topk, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1, Ranked: true, Limit: k})
			if err != nil {
				t.Fatalf("seed %d: Stream top-k: %v", seed, err)
			}
			var got []cxrpq.Row
			for {
				row, ok := topk.Next()
				if !ok {
					break
				}
				got = append(got, row)
			}
			if len(got) != k {
				t.Fatalf("seed %d: top-%d yielded %d rows", seed, k, len(got))
			}
			for i, row := range got {
				if row.Cost != rows[i].Cost || row.Tuple.Key() != rows[i].Tuple.Key() {
					t.Fatalf("seed %d: top-%d row %d = (%v,%d), full order has (%v,%d)",
						seed, k, i, row.Tuple, row.Cost, rows[i].Tuple, rows[i].Cost)
				}
			}
		}
	}
}

// Unranked Limit caps the row count without changing soundness, and the
// rows are a subset of the full result.
func TestStreamLimit(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := workload.NewRNG(seed ^ 0x77)
		q := workload.RandomQuery(r, true)
		db := workload.Random(seed^0x88, 4, 9, "ab")
		sess := cxrpq.MustPrepare(q).Bind(db)
		full := mustEvalBounded(t, sess, 1, seed)
		if full.Len() < 2 {
			continue
		}
		limit := 1 + int(seed)%full.Len()
		cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1, Limit: limit})
		if err != nil {
			t.Fatalf("seed %d: Stream: %v", seed, err)
		}
		rows := drainCursor(t, cur, 2)
		if len(rows) != limit {
			t.Fatalf("seed %d: limit %d yielded %d rows", seed, limit, len(rows))
		}
		if cur.Truncated() {
			t.Fatalf("seed %d: limit stop must not report truncation", seed)
		}
		for _, row := range rows {
			if !full.Contains(row.Tuple) {
				t.Fatalf("seed %d: limited stream emitted %v outside the result", seed, row.Tuple)
			}
		}
	}
}

// A canceled context (and an expired deadline) truncates the stream
// promptly: no hang, Truncated reported, every emitted row sound.
func TestStreamCancellation(t *testing.T) {
	q := workload.RandomQuery(workload.NewRNG(3), true)
	db := workload.Random(0xbeef, 5, 12, "ab")
	sess := cxrpq.MustPrepare(q).Bind(db)
	full := mustEvalBounded(t, sess, 1, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first fetch
	cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1, Ctx: ctx})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	done := make(chan []cxrpq.Row, 1)
	go func() { done <- drainCursor(t, cur, 8) }()
	var rows []cxrpq.Row
	select {
	case rows = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled stream did not finish")
	}
	if !cur.Truncated() {
		t.Fatal("canceled stream must report Truncated")
	}
	for _, row := range rows {
		if !full.Contains(row.Tuple) {
			t.Fatalf("canceled stream emitted unsound row %v", row.Tuple)
		}
	}

	past, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1,
		Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	_ = drainCursor(t, past, 8)
	if !past.Truncated() {
		t.Fatal("expired deadline must report Truncated")
	}

	// Closing a part-read cursor releases the producer and is idempotent.
	cur2, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	cur2.Fetch(1)
	cur2.Close()
	cur2.Close()
	if got := cur2.Fetch(5); got != nil {
		t.Fatalf("Fetch after Close returned %v", got)
	}
}

// Race stress (run under -race): cursors opened, part-read and abandoned by
// several goroutines, interleaved with ApplyDelta writers. The session's
// quiescent-mutation contract is per call here: the mutex serializes every
// session call and fetch against the writer, and a producer runs only inside
// a fetch — so the only concurrency left is cursors on one session moving
// between goroutines, which must be clean.
func TestStreamAbandonWithWriters(t *testing.T) {
	q := workload.RandomQuery(workload.NewRNG(7), true)
	db := workload.Random(0x5157, 5, 10, "ab")
	sess := cxrpq.MustPrepare(q).Bind(db)

	var mu sync.Mutex // serializes session calls/fetches against mutations
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				mu.Lock()
				cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1, Ranked: i%2 == 1})
				mu.Unlock()
				if err != nil {
					t.Errorf("worker %d: Stream: %v", w, err)
					return
				}
				for j := 0; j <= (w+i)%3; j++ {
					mu.Lock()
					cur.Fetch(1 + j)
					mu.Unlock()
				}
				mu.Lock()
				cur.Close() // abandon mid-stream; unwinds the producer
				mu.Unlock()
				if err := cur.Err(); err != nil {
					t.Errorf("worker %d: abandoned cursor error: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			mu.Lock()
			_, err := publish(sess, graph.Delta{Add: []graph.DeltaEdge{
				{From: fmt.Sprintf("w%d", i), Label: 'a', To: fmt.Sprintf("w%d", i+1)},
				{From: fmt.Sprintf("w%d", i+1), Label: 'b', To: "w0"},
			}})
			mu.Unlock()
			if err != nil {
				t.Errorf("writer: ApplyDelta: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// After the dust settles the stream and the materialized evaluation
	// still agree on the final database.
	want := mustEvalBounded(t, sess, 1, 7)
	cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: 1})
	if err != nil {
		t.Fatalf("final Stream: %v", err)
	}
	if got := rowSet(drainCursor(t, cur, 64)); !got.Equal(want) {
		t.Fatalf("post-mutation stream %d tuples, eval %d", got.Len(), want.Len())
	}
}

// Request.Budget threads through Session.Do: a generous budget changes
// nothing; an exhausted one yields ErrCanceled (or a sound partial set)
// without poisoning the result cache for later unbudgeted calls.
func TestDoWithBudget(t *testing.T) {
	q := workload.RandomQuery(workload.NewRNG(11), true)
	db := workload.Random(0x1122, 4, 8, "ab")
	sess := cxrpq.MustPrepare(q).Bind(db)
	want := mustEvalBounded(t, sess, 1, 11)
	dropStore(db)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1,
		Budget: engine.NewBudget(ctx, time.Time{})})
	if resp.Err == nil && resp.Tuples != nil && !resp.Tuples.Equal(want) {
		t.Fatalf("truncated eval returned a full-looking but wrong set")
	}
	if resp.Tuples != nil {
		for _, tup := range resp.Tuples.Sorted() {
			if !want.Contains(tup) {
				t.Fatalf("truncated eval emitted unsound tuple %v", tup)
			}
		}
	}

	// The truncated call must not have cached a partial set.
	resp = sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})
	if resp.Err != nil {
		t.Fatalf("unbudgeted eval after truncation: %v", resp.Err)
	}
	if !resp.Tuples.Equal(want) {
		t.Fatalf("result cache poisoned by truncated call: %d tuples, want %d",
			resp.Tuples.Len(), want.Len())
	}
}

// A deadline bounds every mode, explain included. The query's equality group
// has two free sources, so its join step walks n² source tuples with one small
// product search each: a search the budget cut must end the step (at n = 1600
// bool used to take half a minute to notice a 20 ms deadline), and explain has
// to see the budget at all. A cut answer is unknown, never cached, and the
// same requests without a deadline answer as they always did.
func TestDeadlineBoundsEveryMode(t *testing.T) {
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans()\nu v1 : $x{(a|b)+}b\nw v2 : a$x\nz v3 : $x a"))
	ops := []string{"bool", "check", "explain"}
	for _, n := range []int{200, 1600} {
		db := workload.Random(7, n, 3*n, "ab")
		db.Index()
		sess := plan.Bind(db)
		for _, op := range ops {
			start := time.Now()
			resp := sess.Do(cxrpq.Request{Op: op, Tuple: pattern.Tuple{},
				Budget: engine.NewBudget(context.Background(), start.Add(20*time.Millisecond))})
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Errorf("n=%d %s: returned %v after a 20 ms deadline", n, op, took)
			}
			if !resp.OK && !errors.Is(resp.Err, engine.ErrCanceled) {
				t.Errorf("n=%d %s: OK=false with err %v, want a witness or ErrCanceled", n, op, resp.Err)
			}
			if resp.OK && (resp.Err != nil || op == "explain" && resp.Explanation == nil) {
				t.Errorf("n=%d %s: OK with err %v, explanation %v", n, op, resp.Err, resp.Explanation)
			}
			if st := storeStats(sess); !resp.OK && st.Results.Entries != 0 {
				t.Errorf("n=%d %s: a cut answer was cached (%d entries)", n, op, st.Results.Entries)
			}
			dropStore(sess.DB())
		}
	}

	// A group whose seed masks rule out nearly every source tuple: 1 600 nodes
	// on a cycle, each with one outgoing label of forty, under an arity-3
	// equality group that can start on any of them — a tuple survives only
	// when its three sources agree on their label, 1 in 1 600, and the step
	// walks the other n³ without a search. It polls the budget among those too.
	masked := graph.New()
	for i := 0; i < 1600; i++ {
		masked.AddEdgeNames(fmt.Sprint("m", i), rune('A'+i%40), fmt.Sprint("m", (i+1)%1600))
	}
	masked.Index()
	start := time.Now()
	resp := cxrpq.MustPrepare(cxrpq.MustParse("ans()\nu v1 : $x{[^#][^#]#}\nw v2 : $x\nz v3 : $x")).Bind(masked).Do(cxrpq.Request{Op: "bool",
		Budget: engine.NewBudget(context.Background(), start.Add(20*time.Millisecond))})
	if took := time.Since(start); took > 500*time.Millisecond || resp.OK || !errors.Is(resp.Err, engine.ErrCanceled) {
		t.Errorf("masked group: OK=%v, %v after %v; want ErrCanceled within 500 ms of a 20 ms deadline", resp.OK, resp.Err, took)
	}

	// Unbudgeted, on a graph small enough to finish: all three modes agree,
	// and the explanation is cached like the other answers.
	db := workload.Random(7, 40, 120, "ab")
	sess := plan.Bind(db)
	want, err := verdict(sess.Do(cxrpq.Request{Op: "bool"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if resp := sess.Do(cxrpq.Request{Op: op, Tuple: pattern.Tuple{}}); resp.Err != nil || resp.OK != want {
			t.Errorf("%s without a deadline = %v, %v; want %v", op, resp.OK, resp.Err, want)
		}
	}
	if st := storeStats(sess); st.Results.Entries != len(ops) {
		t.Errorf("%d results cached after %d complete answers", st.Results.Entries, len(ops))
	}
}

// Property: for every k, the incremental any-k ranked stream is exactly the
// k-prefix of the full-drain-and-sort ranked order (Session.StreamDrained,
// export_test.go) — across 60
// random query/graph seeds and one high-output gMark-style join, both
// semantics dispatches, unit and pluggable weights — and its costs never
// decrease.
func TestStreamAnyKPrefixEqualsDrain(t *testing.T) {
	weights := []engine.Weight{
		nil,
		func(label rune) int32 {
			if label == 'b' {
				return 3
			}
			return 1
		},
	}
	check := func(seed int64, q *cxrpq.Query, db *graph.DB) {
		sess := cxrpq.MustPrepare(q).Bind(db)

		type dispatch struct {
			sem string
			k   int
		}
		dispatches := []dispatch{{"bounded", 1}}
		if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval"})); err == nil {
			dispatches = append(dispatches, dispatch{"auto", 0})
		}
		for _, d := range dispatches {
			for wi, w := range weights {
				opts := cxrpq.StreamOptions{Semantics: d.sem, K: d.k, Ranked: true, Weight: w}

				base, err := sess.StreamDrained(opts)
				if err != nil {
					t.Fatalf("seed %d %s w%d: baseline Stream: %v", seed, d.sem, wi, err)
				}
				want := drainCursor(t, base, 7)

				inc, err := sess.Stream(opts)
				if err != nil {
					t.Fatalf("seed %d %s w%d: any-k Stream: %v", seed, d.sem, wi, err)
				}
				got := drainCursor(t, inc, 7)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s w%d: any-k %d rows, drain %d\nquery:\n%s",
						seed, d.sem, wi, len(got), len(want), q.Pattern)
				}
				for i := range want {
					if got[i].Cost != want[i].Cost || got[i].Tuple.Key() != want[i].Tuple.Key() {
						t.Fatalf("seed %d %s w%d: row %d any-k (%v,%d), drain (%v,%d)",
							seed, d.sem, wi, i, got[i].Tuple, got[i].Cost, want[i].Tuple, want[i].Cost)
					}
					if i > 0 && got[i].Cost < got[i-1].Cost {
						t.Fatalf("seed %d %s w%d: costs decrease at row %d", seed, d.sem, wi, i)
					}
				}

				for k := 1; k <= len(want); k++ {
					if len(want) > 64 && k != 1 && k != 64 {
						continue // a high-output input: the first row and one page
					}
					kOpts := opts
					kOpts.Limit = k
					topk, err := sess.Stream(kOpts)
					if err != nil {
						t.Fatalf("seed %d %s w%d k=%d: Stream: %v", seed, d.sem, wi, k, err)
					}
					rows := drainCursor(t, topk, 3)
					if len(rows) != k {
						t.Fatalf("seed %d %s w%d: top-%d yielded %d rows", seed, d.sem, wi, k, len(rows))
					}
					for i := range rows {
						if rows[i].Cost != want[i].Cost || rows[i].Tuple.Key() != want[i].Tuple.Key() {
							t.Fatalf("seed %d %s w%d: top-%d row %d = (%v,%d), full order has (%v,%d)",
								seed, d.sem, wi, k, i, rows[i].Tuple, rows[i].Cost, want[i].Tuple, want[i].Cost)
						}
					}
				}
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		r := workload.NewRNG(seed ^ 0x4a11)
		check(seed, workload.RandomQuery(r, true), workload.Random(seed^0x77aa, 4, 9, "ab"))
	}
	// A high-output join on a gMark-style graph: a cheap first atom, a
	// quadratic-ish answer set the drain sorts whole before its first row.
	check(60, cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+"), workload.GMark(7, 300))
}

// Table test for ranked Limit semantics: Limit == 0 streams every row, any
// positive Limit yields exactly min(limit, total) rows as a prefix of the
// full ranked order, with no off-by-one when rows tie on equal costs — from
// the incremental producer and from the drain-and-sort reference.
func TestStreamRankedLimitTable(t *testing.T) {
	// Three cost-1 ties and one cost-2 row under ans(x, y), x y : ab?.
	db := graph.MustParse("u a v1\nu a v2\nu a v3\nv1 b w\nv2 b w")
	plan, err := cxrpq.PrepareSrc("ans(x, y)\nx y : ab?")
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.Bind(db)

	full, err := sess.Stream(cxrpq.StreamOptions{Ranked: true})
	if err != nil {
		t.Fatal(err)
	}
	order := drainCursor(t, full, 10)
	if len(order) != 4 || order[3].Cost != 2 {
		t.Fatalf("fixture drifted: full ranked order %v", order)
	}

	for _, limit := range []int{0, 1, 2, 3, 4, 5} {
		want := len(order)
		if limit > 0 && limit < want {
			want = limit
		}
		for name, stream := range map[string]func(cxrpq.StreamOptions) (*cxrpq.Cursor, error){"any-k": sess.Stream, "drain": sess.StreamDrained} {
			cur, err := stream(cxrpq.StreamOptions{Ranked: true, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			rows := drainCursor(t, cur, 2)
			if len(rows) != want {
				t.Fatalf("limit=%d %s: %d rows, want %d", limit, name, len(rows), want)
			}
			for i, row := range rows {
				if row.Cost != order[i].Cost || row.Tuple.Key() != order[i].Tuple.Key() {
					t.Fatalf("limit=%d %s: row %d = (%v,%d), full order has (%v,%d)", limit, name, i, row.Tuple, row.Cost, order[i].Tuple, order[i].Cost)
				}
			}
			if cur.Truncated() {
				t.Fatalf("limit=%d %s: limit stop reported truncation", limit, name)
			}
		}
	}
}

// A ranked stream cut by its deadline serves the rows collected so far like
// a complete top-k — sound, deduplicated, nondecreasing — with Truncated
// latched on the pages, and the truncated set never enters any cache: a
// fresh ranked stream afterwards is complete again.
func TestStreamRankedDeadlineTruncated(t *testing.T) {
	plan, err := cxrpq.PrepareSrc("ans(x, z)\nx y : a+\ny z : b+")
	if err != nil {
		t.Fatal(err)
	}
	db := workload.Random(0x7e57, 30, 120, "ab")
	sess := plan.Bind(db)

	full, err := sess.Stream(cxrpq.StreamOptions{Ranked: true})
	if err != nil {
		t.Fatal(err)
	}
	order := drainCursor(t, full, 16)
	if len(order) < 3 {
		t.Fatalf("fixture drifted: only %d ranked rows", len(order))
	}
	fullSet := rowSet(order)

	// Cancel after the first page, on a plan of its own: a stream of plan
	// would be a window of the complete ranked prefix the drain above left. The producer runs only inside a fetch, so the cut lands
	// mid-enumeration deterministically: after the cheapest tier, with the one
	// costlier row popped that ended it. The enumerator polls its budget every
	// 64 queue pops, so at most 64 more rows follow that one.
	ctx, cancel := context.WithCancel(context.Background())
	cutSess := cxrpq.MustPrepare(plan.Query()).Bind(db)
	cur, err := cutSess.Stream(cxrpq.StreamOptions{Ranked: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	first := cur.Fetch(1)
	if len(first) != 1 || first[0].Tuple.Key() != order[0].Tuple.Key() || first[0].Cost != order[0].Cost {
		t.Fatalf("first ranked row = %v, want %v", first, order[0])
	}
	cancel()
	rows := append(first, cur.Fetch(1<<20)...)
	for cur.Err() == nil && !cur.Truncated() {
		p := cur.Fetch(1 << 20)
		rows = append(rows, p...)
		if len(p) == 0 {
			break
		}
	}
	if !cur.Truncated() {
		t.Fatal("canceled ranked stream must report Truncated")
	}
	costlier := 0
	for _, row := range rows {
		if row.Cost > first[0].Cost {
			costlier++
		}
	}
	if costlier > 65 || len(rows) == len(order) {
		t.Fatalf("canceled ranked stream went on for %d rows past the tier in flight (%d of %d in all); want at most 65",
			costlier, len(rows), len(order))
	}
	seen := map[string]bool{}
	for i, row := range rows {
		if !fullSet.Contains(row.Tuple) {
			t.Fatalf("truncated ranked stream emitted unsound row %v", row.Tuple)
		}
		if seen[string(row.Tuple.Key())] {
			t.Fatalf("truncated ranked stream duplicated %v", row.Tuple)
		}
		seen[string(row.Tuple.Key())] = true
		if i > 0 && row.Cost < rows[i-1].Cost {
			t.Fatalf("truncated ranked stream costs decrease at %d", i)
		}
	}
	cur.Close()

	// An expired deadline before the first fetch flags the stream too, here a
	// window of the complete prefix.
	past, err := sess.Stream(cxrpq.StreamOptions{Ranked: true, Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range past.Fetch(1 << 20) {
		if !fullSet.Contains(row.Tuple) {
			t.Fatalf("expired-deadline stream emitted unsound row %v", row.Tuple)
		}
	}
	if !past.Truncated() {
		t.Fatal("expired-deadline ranked stream must report Truncated")
	}

	// The truncated ranked set must not have entered any cache: a fresh
	// ranked stream of the cut one's plan — a window of the whole tiers it
	// published, then a producer of its own — and the materialized evaluation
	// are both complete.
	again, err := cutSess.Stream(cxrpq.StreamOptions{Ranked: true})
	if err != nil {
		t.Fatal(err)
	}
	rows2 := drainCursor(t, again, 16)
	if len(rows2) != len(order) {
		t.Fatalf("ranked stream after truncation: %d rows, want %d (truncated set cached?)", len(rows2), len(order))
	}
	for i := range order {
		if rows2[i].Tuple.Key() != order[i].Tuple.Key() || rows2[i].Cost != order[i].Cost {
			t.Fatalf("ranked stream after truncation diverges at row %d", i)
		}
	}
	if want, err := tuples(cutSess.Do(cxrpq.Request{Op: "eval"})); err == nil {
		if !rowSet(rows2).Equal(want) {
			t.Fatalf("ranked stream after truncation disagrees with Eval")
		}
	}
}

// A stream over a complete cached answer is a window into the set's sorted
// rows: concurrent streams see the same rows in the same order out of one
// shared slab that was sorted once, an abandoned cursor leaves no goroutine
// behind, and a mutation between pages leaves the open window on the answer
// it was opened over while new streams see the new one.
func TestCachedStreamIsWindow(t *testing.T) {
	plan, err := cxrpq.PrepareSrc("ans(x, z)\nx y : a+\ny z : b+")
	if err != nil {
		t.Fatal(err)
	}
	db := workload.Random(0x51ab, 40, 200, "ab")
	sess := plan.Bind(db)
	full, err := tuples(sess.Do(cxrpq.Request{Op: "eval"})) // fills the result cache
	if err != nil || full.Len() < 64 {
		t.Fatalf("fixture: %v tuples, %v", full.Len(), err)
	}
	want := full.SortedRows()

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	pages := make([][]pattern.Rows, 2)
	for w := range pages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := sess.Stream(cxrpq.StreamOptions{})
			if err != nil {
				t.Errorf("Stream: %v", err)
				return
			}
			for {
				p := cur.FetchRows(7 + w)
				pages[w] = append(pages[w], p)
				if p.N < 7+w {
					break
				}
			}
			if cur.Truncated() || cur.Err() != nil {
				t.Errorf("window stream: truncated %v, err %v", cur.Truncated(), cur.Err())
			}
		}()
	}
	wg.Wait()
	for w, ps := range pages {
		at := 0
		for _, p := range ps {
			if p.N > 0 && &p.Data[0] != &want.Data[at*want.Arity] {
				t.Fatalf("stream %d: the page at row %d is not a window of the cached sorted slab", w, at)
			}
			at += p.N
		}
		if at != want.N {
			t.Fatalf("stream %d: %d rows, the answer has %d", w, at, want.N)
		}
	}

	// Abandoned first pages: nothing to join, nothing left running.
	for i := 0; i < 50; i++ {
		cur, err := sess.Stream(cxrpq.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cur.Fetch(10); len(got) != 10 {
			t.Fatalf("first page: %d rows", len(got))
		}
	}
	// The workers above may still be on their way out of wg.Done.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned window cursors left goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
	}

	// A ranked stream once drained leaves a complete ranked prefix, and the
	// next ranked stream's pages are windows of its one slab.
	ranked := cxrpq.StreamOptions{Ranked: true}
	first, err := sess.Stream(ranked)
	if err != nil {
		t.Fatal(err)
	}
	order := drainCursor(t, first, 64)
	prefix, done := sess.RankedPrefix(ranked)
	if !done || prefix.N != want.N || len(order) != want.N {
		t.Fatalf("ranked prefix after a drain: %d rows (done %v), the drain %d, the answer %d", prefix.N, done, len(order), want.N)
	}
	win, err := sess.Stream(ranked)
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < prefix.N; {
		p := win.FetchRows(9)
		if p.N == 0 || &p.Data[0] != &prefix.Data[at*prefix.Arity] || &p.Costs[0] != &prefix.Costs[at] {
			t.Fatalf("the ranked page at row %d is not a window of the shared prefix", at)
		}
		at += p.N
	}

	// A limit cuts the window and is not a truncation; a canceled budget on a
	// complete answer still is, as it was when a producer served the cache —
	// ranked or not.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		opts  cxrpq.StreamOptions
		rows  int
		trunc bool
	}{
		{cxrpq.StreamOptions{Limit: 5}, 5, false},
		{cxrpq.StreamOptions{Limit: 5, Ctx: ctx}, 5, false},
		{cxrpq.StreamOptions{Ctx: ctx}, want.N, true},
		{cxrpq.StreamOptions{Ranked: true, Limit: 5}, 5, false},
		{cxrpq.StreamOptions{Ranked: true, Limit: 5, Ctx: ctx}, 5, false},
		{cxrpq.StreamOptions{Ranked: true, Ctx: ctx}, want.N, true},
	} {
		cur, err := sess.Stream(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if rows := drainCursor(t, cur, 4); len(rows) != tc.rows || cur.Truncated() != tc.trunc {
			t.Fatalf("%+v: %d rows, truncated %v; want %d, %v", tc.opts, len(rows), cur.Truncated(), tc.rows, tc.trunc)
		}
	}

	// ApplyDelta and Fork between pages behave as before: the open window keeps
	// serving the answer it was opened over, new streams serve the new answer.
	cur, err := sess.Stream(cxrpq.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := pageRows(cur.FetchRows(20))
	fork := sess.Fork(db.Snapshot().DB())
	if _, err := publish(sess, graph.Delta{Add: []graph.DeltaEdge{{From: "fresh1", Label: 'a', To: "fresh2"}, {From: "fresh2", Label: 'b', To: "fresh3"}}}); err != nil {
		t.Fatal(err)
	}
	got = append(got, drainCursor(t, cur, 33)...)
	if len(got) != want.N {
		t.Fatalf("window across ApplyDelta: %d rows, want %d", len(got), want.N)
	}
	for i, row := range got {
		for j, v := range want.Row(i) {
			if row.Tuple[j] != int(v) {
				t.Fatalf("window across ApplyDelta: row %d = %v, want %v", i, row.Tuple, want.Row(i))
			}
		}
	}
	after, err := sess.Stream(cxrpq.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainCursor(t, after, 64)); n != want.N+1 {
		t.Fatalf("stream after ApplyDelta: %d rows, want %d", n, want.N+1)
	}
	forked, err := fork.Stream(cxrpq.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainCursor(t, forked, 64)); n != want.N {
		t.Fatalf("stream over the fork: %d rows, want %d", n, want.N)
	}
}

// A panic in a producer — here an engine.Weight that blows up on its second
// call, inside the any-k root of one union member — ends that cursor with an
// error on its final page, not the process; the session is untouched and the
// next stream over it answers.
func TestStreamProducerPanicIsCursorError(t *testing.T) {
	db := workload.Random(9, 10, 30, "ab")
	sess := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n")).Bind(db)
	want, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
	if err != nil || want.Len() == 0 {
		t.Fatalf("fixture: %v, %v", want, err)
	}
	before := runtime.NumGoroutine()
	for _, closeEarly := range []bool{false, true} {
		calls := 0
		cur, err := sess.Stream(cxrpq.StreamOptions{Ranked: true, Weight: func(rune) int32 {
			if calls++; calls > 1 {
				panic("weight table")
			}
			return 1
		}})
		if err != nil {
			t.Fatal(err)
		}
		if closeEarly {
			cur.Close() // before the first fetch: the producer never ran
		} else if rows := cur.Fetch(1 << 20); len(rows) != 0 || cur.Err() == nil || !strings.Contains(cur.Err().Error(), "weight table") {
			t.Fatalf("a stream whose producer panicked: %d rows, err %v", len(rows), cur.Err())
		}
		cur.Close()

		next, err := sess.Stream(cxrpq.StreamOptions{Ranked: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := rowSet(drainCursor(t, next, 16)); !got.Equal(want) {
			t.Fatalf("the stream after the panic has %v, want %v", got.Sorted(), want.Sorted())
		}
	}
	// An unranked enumeration that panics mid-page ends its cursor with the
	// panic as Err; Close after it does not crash, and an unranked stream
	// after it — of a fresh plan, which no filed answer serves — is whole.
	i := int32(0)
	cur := cxrpq.PageCursor(func() ([]int32, bool) {
		if i++; i > 5 {
			panic("row table")
		}
		return []int32{i, i}, true
	}, 0)
	for page, n := range []int{3, 0} {
		if got := cur.FetchRows(3); got.N != n {
			t.Fatalf("mid-page: page %d has %d rows, want %d (err %v)", page, got.N, n, cur.Err())
		}
	}
	if cur.Err() == nil || !strings.Contains(cur.Err().Error(), "row table") {
		t.Fatalf("mid-page: err %v, want the panic", cur.Err())
	}
	cur.Close()
	next, err := cxrpq.MustPrepare(sess.Plan().Query()).Bind(db).Stream(cxrpq.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowSet(drainCursor(t, next, 16)); !got.Equal(want) {
		t.Fatalf("the unranked stream after the panic has %v, want %v", got.Sorted(), want.Sorted())
	}
	// Nothing a panicked producer started is left running.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("panicked producers left goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
	}
}

// TestSemanticsResolvedOnce: Do and Stream read Semantics/K through one
// resolver — the same names select the same answer, and an unknown name is
// refused by both with the same error.
func TestSemanticsResolvedOnce(t *testing.T) {
	q := workload.RandomQuery(workload.NewRNG(11), true)
	db := workload.Random(0x1122, 4, 8, "ab")
	sess := cxrpq.MustPrepare(q).Bind(db)
	for _, sem := range []string{"", "auto", "bounded", "log"} {
		resp := sess.Do(cxrpq.Request{Op: "eval", Semantics: sem, K: 1})
		if resp.Err != nil {
			t.Fatalf("Do(%q): %v", sem, resp.Err)
		}
		cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: sem, K: 1})
		if err != nil {
			t.Fatalf("Stream(%q): %v", sem, err)
		}
		if got := rowSet(drainCursor(t, cur, 7)); !got.Equal(resp.Tuples) {
			t.Errorf("semantics %q: stream has %d rows, eval %d", sem, got.Len(), resp.Tuples.Len())
		}
	}
	resp := sess.Do(cxrpq.Request{Op: "eval", Semantics: "nope"})
	_, err := sess.Stream(cxrpq.StreamOptions{Semantics: "nope"})
	if resp.Err == nil || err == nil || resp.Err.Error() != err.Error() {
		t.Errorf("unknown semantics: Do says %v, Stream says %v; want one error", resp.Err, err)
	}
}

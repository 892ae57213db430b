package cxrpq

// Pull-based (any-k) result streaming for prepared sessions. Session.Stream
// turns the push-with-cancel enumeration loops of the lower layers
// (ecrpq.EvalStream, the bounded engine's streaming leaf) into a Cursor the
// consumer drives: rows are produced strictly on demand, so the first row of
// a large result costs a small prefix of the full evaluation, and an
// abandoned cursor stops paying immediately.
//
// A page is a pattern.Rows — fixed-arity rows back to back in one []int32
// slab — which is what FetchRows returns and the server encodes from; Fetch
// and Next carve tuples out of one. A stream over a complete cached answer is
// a window cursor: an offset into the set's memoized sorted rows
// (TupleSet.SortedRows), with no producer goroutine, no channels and nothing
// for an abandoned cursor to release.
//
// Every other Cursor runs the enumeration in one producer goroutine under a
// strict request/response page protocol: every fetch sends one request and
// receives exactly one page; the producer parks on the request channel the
// moment a page is full. Between fetches the producer is therefore provably
// quiescent — it holds no lock, reads no session state, and cannot race a
// writer — which is what makes interleaving cursors with ApplyDelta
// mutations safe as long as no fetch overlaps the write. Close stops the
// cursor's budget, unwinds the producer at its next budget poll, and joins it.
//
// Ranked mode (shortest-witness-first) streams incrementally: the any-k
// enumerator (ecrpq.AnyK) pops rows in nondecreasing witness cost, so the
// first occurrence of a tuple IS its minimal cost and top-k costs O(k) queue
// expansions instead of a full drain; equal-cost tiers are sorted
// lexicographically before emission, which makes the sequence identical to
// drain-then-sort. A union too wide to root eagerly (over the combination
// cap) falls back to that drain. See "Rows" in internal/README.md.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
)

// Row is one streamed result: the output tuple and, on ranked streams, its
// witness length (the number of graph edges on the shortest witness paths of
// the assignment that produced it; 0 on unranked streams).
type Row struct {
	Tuple pattern.Tuple
	Cost  int
}

// StreamOptions configures one Session.Stream call. The zero value streams
// the fragment-dispatched evaluation (like Do with Op "eval") unranked,
// unbounded and unlimited.
type StreamOptions struct {
	// Semantics selects the evaluation: ""/"auto" dispatches by fragment
	// (classical/simple/vstar-free; unrestricted queries error, as in Do),
	// "bounded" forces CXRPQ^≤K semantics, "log" CXRPQ^log.
	Semantics string
	K         int // image bound for Semantics == "bounded" (k < 0 is refused)

	// Ranked orders the stream shortest-witness-first: Cost ascending, ties
	// in lexicographic tuple order. The stream is incremental (any-k); see
	// the package comment.
	Ranked bool

	// Weight generalizes the ranked witness cost from edge count to a
	// pluggable per-edge-label weight (engine.Weight; nil = unit cost).
	// Ignored unless Ranked. Weighted evaluations bypass the database's
	// atom store — a weight function has no identity to file a relation
	// under — so they trade reuse for the custom metric.
	Weight engine.Weight

	// Limit caps the total number of rows the cursor yields (0 = all).
	// On ranked streams this is top-k selection.
	Limit int

	// Deadline and Ctx bound the evaluation: once the deadline passes or the
	// context is done, the enumeration unwinds at its next budget poll and
	// the cursor reports Truncated. Zero/nil impose no bound.
	Deadline time.Time
	Ctx      context.Context
}

// cursorPage is one producer→consumer transfer: up to the requested number
// of rows, plus — on the final page — the enumeration's outcome.
type cursorPage struct {
	rows      pattern.Rows
	final     bool
	err       error
	truncated bool
}

// Cursor is a pull-based result iterator; obtain one from Session.Stream.
// It is NOT safe for concurrent use (one consumer drives it), and it must be
// Closed when abandoned before exhaustion — Close releases the producer
// goroutine. Iterating past the end is fine without Close.
type Cursor struct {
	bud *engine.Budget

	// The page protocol's two channels while a producer runs. Without one (reqs
	// is nil) the cursor is a window: it serves win, the rest of a complete
	// sorted answer or of a finished producer's final page.
	reqs  chan int
	pages chan cursorPage
	win   pattern.Rows

	buf       pattern.Rows // rows fetched but not yet returned by Next
	nextWant  int          // escalating page size for Next
	rowsOut   int64
	err       error
	truncated bool
	exhausted bool
	closed    bool
}

// streamRun is the producer-side enumeration of one Stream dispatch: it
// pushes every row into emit and honors emit's false return by unwinding.
type streamRun func(emit ecrpq.StreamFunc) error

// Stream starts a pull-based enumeration of the query's results and returns
// its cursor. Rows are computed as the consumer demands them (Next/Fetch);
// see StreamOptions for semantics, ranking, limits and deadlines, and the
// Cursor type for the concurrency contract. Construction-time failures
// (unknown semantics, fragment mismatch) surface here; evaluation-time
// failures, a member's translation error among them, surface on the final
// fetch through Cursor.Err.
func (s *Session) Stream(opts StreamOptions) (*Cursor, error) {
	bounded, k, err := s.semantics(opts.Semantics, opts.K)
	if err != nil {
		return nil, err
	}
	bud := engine.NewBudget(opts.Ctx, opts.Deadline)
	if opts.Ranked {
		build, err := s.anyKBuilderFor(bounded, k, bud, opts.Weight)
		if err != nil {
			return nil, err
		}
		if build != nil {
			return newCursor(bud, opts, nil, build), nil
		}
	}
	if res := s.cachedAnswer(k, opts.Ranked); res != nil {
		c := &Cursor{bud: bud, win: res.SortedRows(), nextWant: 1}
		if opts.Limit > 0 && c.win.N >= opts.Limit {
			// A stream its limit completes cannot be truncated: no budget.
			c.bud, c.win = nil, c.win.Slice(0, opts.Limit)
		}
		return c, nil
	}
	run, err := s.streamRunFor(bounded, k, ecrpq.Options{Budget: bud, Ranked: opts.Ranked, Weight: opts.Weight})
	if err != nil {
		return nil, err
	}
	return newCursor(bud, opts, run, nil), nil
}

// cachedAnswer returns the dispatch's complete answer when the session result
// cache, which only ever holds complete, un-truncated answers, has it. The sets
// carry no witness costs, so a ranked stream cannot be served from one.
func (s *Session) cachedAnswer(k int, ranked bool) *pattern.TupleSet {
	if ranked {
		return nil
	}
	_, rc, _ := s.current()
	resp, _ := rc.get(resultKey{op: "eval", k: k})
	return resp.Tuples
}

// anyKBuilderFor builds the deferred constructor of the incremental any-k
// enumerator for one ranked dispatch. It returns (nil, nil) when the dispatch
// has no incremental path — a union of more than vsfComboCap members, an
// unbounded number of evaluators to root — and the caller falls back to the
// drain, which walks the same member source.
// The constructor itself runs on the producer goroutine: for the union it
// only registers one root per member (evaluation is lazy behind Next), while
// the bounded dispatch first enumerates the variable mappings and builds
// their relations, deferring every leaf join onto the queue.
func (s *Session) anyKBuilderFor(bounded bool, k int, bud *engine.Budget, w engine.Weight) (func() (*ecrpq.AnyK, error), error) {
	if bounded {
		e, err := s.boundedRun(k, false, nil, bud)
		if err != nil {
			return nil, err
		}
		return func() (*ecrpq.AnyK, error) {
			e.ranked = true
			e.seq = true // AnyK is single-consumer; leaves run on this goroutine
			e.weight = w
			e.anyk = ecrpq.NewAnyK(ecrpq.Options{Budget: bud})
			_, err := e.run()
			return e.anyk, err
		}, nil
	}
	ms, err := s.plan.members()
	if err != nil || s.plan.overCap {
		return nil, err // too many members to root eagerly: drain
	}
	return func() (*ecrpq.AnyK, error) {
		ak := ecrpq.NewAnyK(ecrpq.Options{Budget: bud})
		return ak, ak.AddUnion(queries(ms), s.db, w)
	}, nil
}

// streamRunFor builds the producer enumeration for one dispatch. Unranked, the
// bounded mappings dedup here and the union's members in
// ecrpq.EvalUnionStream — each source dedups only within itself; ranked
// dispatches must NOT dedup (the cursor keeps the minimal cost per tuple
// instead).
func (s *Session) streamRunFor(bounded bool, k int, opts ecrpq.Options) (streamRun, error) {
	bud, ranked := opts.Budget, opts.Ranked
	if bounded {
		e, err := s.boundedRun(k, false, nil, bud)
		if err != nil {
			return nil, err
		}
		return func(emit ecrpq.StreamFunc) error {
			e.ranked = ranked
			e.weight = opts.Weight
			e.seq = true // yield is called from this goroutine only
			if ranked {
				e.yield = emit
			} else {
				e.yield = ecrpq.Dedup(emit)
			}
			_, err = e.run()
			return err
		}, nil
	}
	ms, err := s.plan.members()
	if err != nil {
		return nil, err
	}
	return func(emit ecrpq.StreamFunc) error { return ecrpq.EvalUnionStream(queries(ms), s.db, opts, emit) }, nil
}

// defaultLess is the ranked comparator: witness length ascending, ties in
// lexicographic tuple order (so equal-cost rows stream deterministically).
func defaultLess(a, b Row) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	for i := 0; i < len(a.Tuple) && i < len(b.Tuple); i++ {
		if a.Tuple[i] != b.Tuple[i] {
			return a.Tuple[i] < b.Tuple[i]
		}
	}
	return len(a.Tuple) < len(b.Tuple)
}

// newCursor starts the producer goroutine parked on the first request.
// Exactly one of run and build is non-nil: build selects the incremental
// any-k ranked producer, run the unranked stream or the ranked drain.
func newCursor(bud *engine.Budget, opts StreamOptions, run streamRun, build func() (*ecrpq.AnyK, error)) *Cursor {
	c := &Cursor{bud: bud, reqs: make(chan int), pages: make(chan cursorPage), nextWant: 1}
	go func() {
		defer close(c.pages)
		// A panic of the enumeration ends this stream, not the process: the
		// consumer is waiting for a page whenever the producer runs, and gets a
		// final one that says so.
		defer func() {
			if r := recover(); r != nil {
				c.pages <- cursorPage{final: true, err: fmt.Errorf("cxrpq: stream producer panicked: %v", r)}
			}
		}()
		want, ok := <-c.reqs
		if !ok {
			return // closed before the first fetch: nothing ran
		}
		if build != nil {
			c.produceAnyK(build, opts.Limit, want)
			return
		}
		if opts.Ranked {
			c.produceRanked(run, opts.Limit)
			return
		}
		// Unranked: rows flow to the consumer as the enumeration finds them.
		pg := &pager{c: c, want: want, limit: opts.Limit}
		pg.finish(run(pg.add))
	}()
	return c
}

// pager is the producer's end of the page protocol: rows are appended to a
// page slab sized to the request and counted against Limit, a full page is
// handed over, and the producer parks until the next request.
type pager struct {
	c        *Cursor
	want     int
	limit    int
	ranked   bool // pages carry costs
	page     pattern.Rows
	total    int
	limitHit bool
}

// add appends one row. It reports false when the producer has to stop: the
// row reached the limit (the page in hand is then the final one), or the
// consumer closed.
func (pg *pager) add(row []int32, cost int) bool {
	if pg.page.Data == nil {
		n := min(pg.want, 1024) // a drain-everything fetch asks for 2^20 rows of what may be ten
		pg.page = pattern.Rows{Arity: len(row), Data: make([]int32, 0, n*len(row))}
		if pg.ranked {
			pg.page.Costs = make([]int32, 0, n)
		}
	}
	pg.page.Data = append(pg.page.Data, row...)
	if pg.ranked {
		pg.page.Costs = append(pg.page.Costs, int32(cost))
	}
	pg.page.N++
	if pg.total++; pg.total == pg.limit {
		pg.limitHit = true
		return false
	}
	if pg.page.N >= pg.want {
		pg.c.pages <- cursorPage{rows: pg.page}
		pg.page = pattern.Rows{}
		var ok bool
		pg.want, ok = <-pg.c.reqs
		return ok
	}
	return true
}

// finish sends the final page with the enumeration's outcome (to Close's
// drain, if the consumer has closed). A stream stopped by its limit is
// complete, not truncated.
func (pg *pager) finish(err error) {
	trunc := !pg.limitHit && pg.c.bud.Err() != nil
	if errors.Is(err, engine.ErrCanceled) {
		trunc, err = true, nil
	}
	pg.c.pages <- cursorPage{rows: pg.page, final: true, err: err, truncated: trunc}
}

// produceAnyK is the incremental ranked producer: rows pop off the any-k
// priority queue in nondecreasing witness cost and enter the stream's dedup
// set first-seen (exact min-cost dedup, since later occurrences cannot be
// cheaper); the set's tail since the last cost change is the current tier,
// emitted in lexicographic order when the cost moves on — so the first row
// costs one queue expansion chain, not a drain. The emitted sequence is
// identical to produceRanked's.
func (c *Cursor) produceAnyK(build func() (*ecrpq.AnyK, error), limit, want int) {
	pg := &pager{c: c, want: want, limit: limit, ranked: true}
	ak, err := build()
	if err != nil {
		pg.finish(err)
		return
	}
	seen := pattern.NewTupleSet()
	tier, tierCost := 0, 0 // the tier is rows [tier, seen.Len()) of seen, all at tierCost
	var perm []int32
	flush := func() bool {
		rows := seen.Rows()
		perm = perm[:0]
		for i := tier; i < rows.N; i++ {
			perm = append(perm, int32(i))
		}
		tier = rows.N
		slices.SortFunc(perm, func(a, b int32) int { return slices.Compare(rows.Row(int(a)), rows.Row(int(b))) })
		for _, i := range perm {
			if !pg.add(rows.Row(int(i)), tierCost) {
				return false
			}
		}
		return true
	}
	for {
		row, cost, ok := ak.Next()
		if !ok || cost != tierCost {
			if !flush() || !ok {
				break
			}
			tierCost = cost
		}
		seen.AddRow(row)
	}
	pg.finish(nil)
}

// produceRanked drains the enumeration keeping the minimal witness cost per
// tuple, orders by defaultLess, applies top-k, then hands the sorted slab
// over as one final page, which the consumer windows. It serves the ranked
// stream of an over-cap union, which has no incremental path. Truncation is
// known before the first row is served, so EVERY page carries the flag — a
// deadline-cut ranked result must never be mistaken for a complete top-k
// mid-pagination.
func (c *Cursor) produceRanked(run streamRun, limit int) {
	best := pattern.NewTupleSet()
	var costs []int32 // per row of best: its minimal cost so far
	err := run(func(row []int32, cost int) bool {
		if at, added := best.Insert(row); added {
			costs = append(costs, int32(cost))
		} else if int32(cost) < costs[at] {
			costs[at] = int32(cost)
		}
		return true
	})
	trunc := c.bud.Err() != nil
	if errors.Is(err, engine.ErrCanceled) {
		trunc, err = true, nil
	}
	all := best.Rows()
	all.Costs = costs
	rows := rowsOf(all) // what the comparator reads
	sort.SliceStable(rows, func(i, j int) bool { return defaultLess(rows[i], rows[j]) })
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	sorted := pattern.Rows{Arity: all.Arity, N: len(rows)}
	for _, r := range rows {
		for _, v := range r.Tuple {
			sorted.Data = append(sorted.Data, int32(v))
		}
		sorted.Costs = append(sorted.Costs, int32(r.Cost))
	}
	c.pages <- cursorPage{rows: sorted, final: true, err: err, truncated: trunc}
}

// rowsOf carves a page into Rows, the tuples out of one backing array.
func rowsOf(p pattern.Rows) []Row {
	tuples := p.Tuples()
	if tuples == nil {
		return nil
	}
	out := make([]Row, p.N)
	for i, t := range tuples {
		out[i].Tuple = t
		if p.Costs != nil {
			out[i].Cost = int(p.Costs[i])
		}
	}
	return out
}

// nextPage gets the next page of up to n rows and latches what it says.
func (c *Cursor) nextPage(n int) pattern.Rows {
	if c.reqs != nil {
		c.reqs <- n
		p := <-c.pages
		c.truncated = c.truncated || p.truncated
		if !p.final {
			return p.rows
		}
		// The final page is all that is left, however much, and its flag all
		// there is to say about truncation: the producer has exited, the budget
		// has nothing left to cut, and the cursor goes on as a window.
		close(c.reqs)
		c.reqs, c.bud, c.win, c.err = nil, nil, p.rows, p.err
	}
	p := c.win.Slice(0, min(n, c.win.N))
	c.win = c.win.Slice(p.N, c.win.N)
	if p.N < n {
		c.exhausted = true
		c.truncated = c.truncated || c.bud.Err() != nil
	}
	return p
}

// FetchRows returns the next page of up to n rows as one slab. A short (or
// empty) page means the stream is exhausted — check Err and Truncated then.
// The page is read-only: a window cursor's pages alias the shared cached
// answer. After Close it returns no rows.
func (c *Cursor) FetchRows(n int) pattern.Rows {
	if n <= 0 || c.closed {
		return pattern.Rows{}
	}
	out := c.buf.Slice(0, min(n, c.buf.N)) // rows Next fetched ahead go first
	c.buf = c.buf.Slice(out.N, c.buf.N)
	if out.N == 0 && !c.exhausted {
		out = c.nextPage(n)
	} else if out.N < n && !c.exhausted {
		p := c.nextPage(n - out.N) // top up in a copy: pages may alias shared storage
		out.Data = append(slices.Clip(out.Data), p.Data...)
		out.Costs = append(slices.Clip(out.Costs), p.Costs...)
		out.N += p.N
	}
	c.rowsOut += int64(out.N)
	return out
}

// Fetch is FetchRows for callers that speak tuples (nil for an empty page).
func (c *Cursor) Fetch(n int) []Row { return rowsOf(c.FetchRows(n)) }

// Next returns the next row. The underlying page size escalates
// geometrically (1, 4, 16, …, 256), so the first call does the least work
// that can produce a row and a full drain still amortizes the page
// handshakes.
func (c *Cursor) Next() (Row, bool) {
	if c.buf.N == 0 {
		if c.closed || c.exhausted {
			return Row{}, false
		}
		want := c.nextWant
		if c.nextWant < 256 {
			c.nextWant *= 4
		}
		c.buf = c.nextPage(want)
		if c.buf.N == 0 {
			return Row{}, false
		}
	}
	r := rowsOf(c.buf.Slice(0, 1))[0]
	c.buf = c.buf.Slice(1, c.buf.N)
	c.rowsOut++
	return r, true
}

// Close stops the stream: the budget is stopped, the producer (a window
// cursor has none) unwinds at its next poll, and Close blocks until it has
// exited — after Close returns, no cursor goroutine touches the session. Safe
// to call multiple times and after exhaustion.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.bud.Stop()
	c.buf = pattern.Rows{}
	if c.reqs == nil {
		return
	}
	close(c.reqs)
	for p := range c.pages {
		if p.truncated {
			c.truncated = true
		}
		if p.final {
			c.err = p.err
		}
	}
}

// Err returns the evaluation error of a stream whose enumeration has ended
// (or which was closed), nil while it runs or when it ended cleanly. Budget
// truncation is not an error here — see Truncated.
func (c *Cursor) Err() error { return c.err }

// Truncated reports that the enumeration was cut short by the deadline or
// context (not by Limit): the rows streamed are a sound subset of the full
// result. It latches as soon as any fetched page is known to belong to an
// incomplete result — for a deadline-cut ranked drain that is the FIRST
// page, so paginating consumers see the flag without draining to the end.
func (c *Cursor) Truncated() bool { return c.truncated }

// RowsStreamed returns the number of rows handed to the consumer so far.
func (c *Cursor) RowsStreamed() int64 { return c.rowsOut }

package cxrpq

// Pull-based (any-k) result streaming for prepared sessions. Session.Stream
// turns the push-with-cancel enumeration loops of the lower layers
// (ecrpq.EvalStream, the bounded engine's streaming leaf) into a Cursor the
// consumer drives: rows are produced strictly on demand, so the first row of
// a large result costs a small prefix of the full evaluation, and an
// abandoned cursor stops paying immediately.
//
// The Cursor runs the enumeration in one producer goroutine under a strict
// request/response page protocol: every Fetch(n) sends one request and
// receives exactly one page of up to n rows; the producer parks on the
// request channel the moment a page is full. Between Fetch calls the
// producer is therefore provably quiescent — it holds no lock, reads no
// session state, and cannot race a writer — which is what makes interleaving
// cursors with ApplyDelta mutations safe as long as no Fetch overlaps the
// write (the session's usual quiescent-mutation contract, per call instead
// of per drain). Close stops the cursor's budget, unwinds the producer at
// its next budget poll, and joins it before returning.
//
// Ranked mode (shortest-witness-first) streams incrementally under the
// default comparator: the producer runs the any-k enumerator
// (ecrpq.AnyK) — a priority queue over partial join assignments keyed by
// admissible lower bounds from the kernels' level indices — whose pops
// arrive in nondecreasing witness cost, so the first occurrence of a tuple
// IS its minimal cost and top-k costs O(k) queue expansions instead of a
// full drain. Equal-cost runs are buffered and sorted lexicographically
// before emission, making the output sequence identical to the historical
// drain-then-sort. A custom Less falls back to that drain — an arbitrary
// comparator's order can only be known once every row has been enumerated —
// and a witness cost under a pluggable StreamOptions.Weight rides either
// path. In all ranked modes costs are nondecreasing across the stream.

import (
	"context"
	"errors"
	"fmt"
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
// the fragment-dispatched evaluation (like Session.Eval) unranked, unbounded
// and unlimited.
type StreamOptions struct {
	// Semantics selects the evaluation: ""/"auto" dispatches by fragment
	// (classical/simple/vstar-free; unrestricted queries error, as in Eval),
	// "bounded" forces CXRPQ^≤K semantics, "log" CXRPQ^log.
	Semantics string
	K         int // image bound for Semantics == "bounded"

	// Ranked orders the stream shortest-witness-first (nondecreasing Cost).
	// Under the default comparator the stream is incremental (any-k); see
	// the package comment.
	Ranked bool

	// Less overrides the ranked comparator (default: Cost ascending, then
	// lexicographic tuple order). Ignored unless Ranked. A custom Less
	// forfeits incremental streaming: the producer drains and sorts.
	Less func(a, b Row) bool

	// Weight generalizes the ranked witness cost from edge count to a
	// pluggable per-edge-label weight (engine.Weight; nil = unit cost).
	// Ignored unless Ranked. Weighted evaluations bypass the session's
	// cross-query relation caches — a weight function has no cache
	// identity — so they trade cache reuse for the custom metric.
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
	rows      []Row
	final     bool
	err       error
	truncated bool
}

// Cursor is a pull-based result iterator; obtain one from Session.Stream.
// It is NOT safe for concurrent use (one consumer drives it), and it must be
// Closed when abandoned before exhaustion — Close releases the producer
// goroutine. Iterating past the end is fine without Close.
type Cursor struct {
	bud   *engine.Budget
	reqs  chan int
	pages chan cursorPage

	buf        []Row // rows fetched but not yet returned by Next
	nextWant   int   // escalating page size for Next
	rowsOut    int64
	err        error
	truncated  bool
	exhausted  bool
	closed     bool
	reqsClosed bool
}

// streamRun is the producer-side enumeration of one Stream dispatch: it
// pushes every row into emit and honors emit's false return by unwinding.
type streamRun func(emit func(t pattern.Tuple, cost int) bool) error

// Stream starts a pull-based enumeration of the query's results and returns
// its cursor. Rows are computed as the consumer demands them (Next/Fetch);
// see StreamOptions for semantics, ranking, limits and deadlines, and the
// Cursor type for the concurrency contract. Construction-time failures
// (unknown semantics, fragment mismatch, translation errors) surface here;
// evaluation-time failures surface on the final fetch through Cursor.Err.
func (s *Session) Stream(opts StreamOptions) (*Cursor, error) {
	bounded, k := false, 0
	switch opts.Semantics {
	case "", "auto":
		if s.plan.kind == kindGeneral {
			return nil, fmt.Errorf("cxrpq: %s is not vstar-free; stream with Semantics \"bounded\" or \"log\"", s.plan.fragment)
		}
	case "bounded":
		bounded, k = true, opts.K
	case "log":
		bounded, k = true, logBound(s.db)
	default:
		return nil, fmt.Errorf("cxrpq: unknown stream semantics %q", opts.Semantics)
	}
	bud := engine.NewBudget(opts.Ctx, opts.Deadline, 0)
	if opts.Ranked && opts.Less == nil {
		build, err := s.anyKBuilderFor(bounded, k, bud, opts.Weight)
		if err != nil {
			return nil, err
		}
		if build != nil {
			return newCursor(bud, opts, nil, build), nil
		}
	}
	run, err := s.streamRunFor(bounded, k, ecrpq.Options{Budget: bud, Ranked: opts.Ranked, Weight: opts.Weight})
	if err != nil {
		return nil, err
	}
	return newCursor(bud, opts, run, nil), nil
}

// anyKBuilderFor builds the deferred constructor of the incremental any-k
// enumerator for one ranked dispatch under the default comparator. It
// returns (nil, nil) when the dispatch has no incremental path (the VSF
// branch-combination overflow case) — the caller falls back to the drain.
// The constructor itself runs on the producer goroutine: for query-form
// dispatches it only registers roots (evaluation is lazy behind Next), while
// the bounded dispatch first enumerates the variable mappings and builds
// their relations, deferring every leaf join onto the queue.
func (s *Session) anyKBuilderFor(bounded bool, k int, bud *engine.Budget, w engine.Weight) (func() (*ecrpq.AnyK, error), error) {
	if bounded {
		sc, _, sigma := s.current()
		bp, err := s.plan.boundedPlanFor()
		if err != nil {
			return nil, err
		}
		return func() (*ecrpq.AnyK, error) {
			e, err := newBoundedEngine(bp, s.db, k, false, nil, sc, sigma)
			if err != nil {
				return nil, err
			}
			e.setBudget(bud)
			e.ranked = true
			e.seq = true // AnyK is single-consumer; leaves run on this goroutine
			e.weight = w
			ak := ecrpq.NewAnyK(bud)
			e.anyk = ak
			if _, err := e.run(); err != nil {
				return nil, err
			}
			return ak, nil
		}, nil
	}
	switch s.plan.kind {
	case kindClassical, kindSimple:
		eq, err := s.plan.simpleQuery()
		if err != nil {
			return nil, err
		}
		return func() (*ecrpq.AnyK, error) {
			ak := ecrpq.NewAnyK(bud)
			if err := ak.AddQuery(eq, s.db, w); err != nil {
				return nil, err
			}
			return ak, nil
		}, nil
	case kindVsf:
		combos, overflow, err := s.plan.vsfCombos()
		if err != nil {
			return nil, err
		}
		if overflow {
			return nil, nil // too many branch combos to root eagerly: drain
		}
		return func() (*ecrpq.AnyK, error) {
			ak := ecrpq.NewAnyK(bud)
			for _, cb := range combos {
				if cb.err != nil {
					return nil, cb.err
				}
				if err := ak.AddQuery(cb.eq, s.db, w); err != nil {
					return nil, err
				}
			}
			return ak, nil
		}, nil
	default:
		return nil, fmt.Errorf("cxrpq: %s is not vstar-free; stream with Semantics \"bounded\" or \"log\"", s.plan.fragment)
	}
}

// streamRunFor builds the producer enumeration for one dispatch. Unranked
// multi-source dispatches (branch combinations, bounded mappings) dedup at
// this layer — each source dedups only within itself; ranked dispatches must
// NOT dedup here (the cursor keeps the minimal cost per tuple instead).
func (s *Session) streamRunFor(bounded bool, k int, opts ecrpq.Options) (streamRun, error) {
	bud, ranked := opts.Budget, opts.Ranked
	if bounded {
		sc, rc, sigma := s.current()
		bp, err := s.plan.boundedPlanFor()
		if err != nil {
			return nil, err
		}
		if run, ok := cachedRun(rc, fmt.Sprintf("bnd\x1f%d\x1ffalse", k), ranked); ok {
			return run, nil
		}
		return func(emit func(t pattern.Tuple, cost int) bool) error {
			e, err := newBoundedEngine(bp, s.db, k, false, nil, sc, sigma)
			if err != nil {
				return err
			}
			e.setBudget(bud)
			e.ranked = ranked
			e.weight = opts.Weight
			e.seq = true // yield is called from this goroutine only
			if ranked {
				e.yield = emit
			} else {
				e.yield = dedupEmit(emit)
			}
			_, err = e.run()
			return err
		}, nil
	}
	switch s.plan.kind {
	case kindClassical, kindSimple:
		_, rc, _ := s.current()
		eq, err := s.plan.simpleQuery()
		if err != nil {
			return nil, err
		}
		if run, ok := cachedRun(rc, "eval", ranked); ok {
			return run, nil
		}
		return func(emit func(t pattern.Tuple, cost int) bool) error {
			return ecrpq.EvalStream(eq, s.db, opts, emit)
		}, nil
	case kindVsf:
		_, rc, _ := s.current()
		combos, overflow, err := s.plan.vsfCombos()
		if err != nil {
			return nil, err
		}
		if run, ok := cachedRun(rc, "vsf", ranked); ok {
			return run, nil
		}
		return func(emit func(t pattern.Tuple, cost int) bool) error {
			if !ranked {
				emit = dedupEmit(emit)
			}
			stopped := false
			wrapped := func(t pattern.Tuple, cost int) bool {
				if !emit(t, cost) {
					stopped = true
					return false
				}
				return true
			}
			if !overflow {
				for _, cb := range combos {
					if cb.err != nil {
						return cb.err
					}
					if err := ecrpq.EvalStream(cb.eq, s.db, opts, wrapped); err != nil {
						return err
					}
					if stopped || bud.Canceled() {
						return nil
					}
				}
				return nil
			}
			c := s.plan.q.CXRE()
			origDefined := c.DefinedVars()
			err := branchCombos(c, func(combo CXRE) error {
				if stopped || bud.Canceled() {
					return errStop
				}
				eq, err := comboToSimpleECRPQ(s.plan.q, combo, origDefined)
				if err != nil {
					return err
				}
				return ecrpq.EvalStream(eq, s.db, opts, wrapped)
			})
			if err == errStop {
				err = nil
			}
			return err
		}, nil
	default:
		return nil, fmt.Errorf("cxrpq: %s is not vstar-free; stream with Semantics \"bounded\" or \"log\"", s.plan.fragment)
	}
}

// cachedRun serves an unranked stream straight from a complete cached result
// of the same evaluation (the session result cache only ever holds complete,
// un-truncated sets), skipping the enumeration entirely. Ranked streams
// cannot use it: cached sets carry no witness costs.
func cachedRun(rc *resultCache, key string, ranked bool) (streamRun, bool) {
	if ranked {
		return nil, false
	}
	v, ok := rc.get(key)
	if !ok {
		return nil, false
	}
	res, ok := v.(*pattern.TupleSet)
	if !ok {
		return nil, false
	}
	return func(emit func(t pattern.Tuple, cost int) bool) error {
		for _, t := range res.Sorted() {
			if !emit(t, 0) {
				return nil
			}
		}
		return nil
	}, true
}

// dedupEmit wraps an emit with tuple-level deduplication for unranked
// multi-source dispatches.
func dedupEmit(emit func(t pattern.Tuple, cost int) bool) func(t pattern.Tuple, cost int) bool {
	seen := map[string]bool{}
	return func(t pattern.Tuple, cost int) bool {
		k := t.Key()
		if seen[k] {
			return true
		}
		seen[k] = true
		return emit(t, cost)
	}
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
	c := &Cursor{
		bud:      bud,
		reqs:     make(chan int),
		pages:    make(chan cursorPage),
		nextWant: 1,
	}
	less := opts.Less
	if less == nil {
		less = defaultLess
	}
	go func() {
		defer close(c.pages)
		want, ok := <-c.reqs
		if !ok {
			return // closed before the first fetch: nothing ran
		}
		if build != nil {
			c.produceAnyK(build, opts.Limit, want)
			return
		}
		if opts.Ranked {
			c.produceRanked(run, less, opts.Limit, want)
			return
		}
		c.produceStream(run, opts.Limit, want)
	}()
	return c
}

// produceAnyK is the incremental ranked producer: rows pop off the any-k
// priority queue in nondecreasing witness cost, each equal-cost run is
// buffered, sorted lexicographically and deduplicated first-seen (exact
// min-cost dedup, since later occurrences cannot be cheaper), and pages
// flow under the same request protocol as the unranked stream — so the
// first row costs one queue expansion chain, not a drain. The emitted
// sequence is identical to produceRanked under defaultLess.
func (c *Cursor) produceAnyK(build func() (*ecrpq.AnyK, error), limit, want int) {
	ak, err := build()
	if err != nil {
		c.pages <- cursorPage{final: true, err: err, truncated: c.bud.Err() != nil}
		return
	}
	var page []Row
	closed := false // consumer closed reqs mid-stream: unwind silently
	send := func(r Row) {
		page = append(page, r)
		if len(page) >= want {
			c.pages <- cursorPage{rows: page}
			page = nil
			var ok bool
			want, ok = <-c.reqs
			if !ok {
				closed = true
			}
		}
	}
	seen := map[string]bool{}
	total, limitHit := 0, false
	var batch []Row
	curCost := 0
	flush := func() {
		sort.SliceStable(batch, func(i, j int) bool { return defaultLess(batch[i], batch[j]) })
		for _, r := range batch {
			k := r.Tuple.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if limit > 0 && total >= limit {
				limitHit = true
				return
			}
			send(r)
			total++
			if closed {
				return
			}
		}
		batch = batch[:0]
	}
	for !closed && !limitHit {
		t, cost, ok := ak.Next()
		if !ok {
			break
		}
		if len(batch) > 0 && cost != curCost {
			flush()
			if closed || limitHit {
				break
			}
		}
		curCost = cost
		batch = append(batch, Row{Tuple: t, Cost: cost})
	}
	if !closed && !limitHit {
		flush()
	}
	if closed {
		return
	}
	trunc := !limitHit && c.bud.Err() != nil
	c.pages <- cursorPage{rows: page, final: true, truncated: trunc}
}

// produceStream is the unranked producer: rows flow to the consumer as the
// enumeration finds them, one page per request, producer parked between
// pages.
func (c *Cursor) produceStream(run streamRun, limit, want int) {
	var batch []Row
	total := 0
	limitHit := false
	emit := func(t pattern.Tuple, cost int) bool {
		batch = append(batch, Row{Tuple: t, Cost: cost})
		total++
		if limit > 0 && total >= limit {
			limitHit = true
			return false
		}
		if len(batch) >= want {
			c.pages <- cursorPage{rows: batch}
			batch = nil
			var ok bool
			want, ok = <-c.reqs
			if !ok {
				return false // Close: unwind; the drain collects the final page
			}
		}
		return true
	}
	err := run(emit)
	trunc := !limitHit && c.bud.Err() != nil
	if errors.Is(err, engine.ErrCanceled) {
		trunc, err = true, nil
	}
	c.pages <- cursorPage{rows: batch, final: true, err: err, truncated: trunc}
}

// produceRanked drains the enumeration keeping the minimal witness cost per
// tuple, orders by the comparator, applies top-k, then serves pages. It is
// the fallback for custom comparators (an arbitrary Less needs the full
// result before any row's position is known); the default comparator takes
// the incremental produceAnyK instead. Truncation is known before the first
// page, so EVERY page carries the flag — a deadline-cut ranked result must
// never be mistaken for a complete top-k mid-pagination.
func (c *Cursor) produceRanked(run streamRun, less func(a, b Row) bool, limit, want int) {
	best := map[string]int{} // tuple key -> index into rows
	var rows []Row
	err := run(func(t pattern.Tuple, cost int) bool {
		k := t.Key()
		if i, ok := best[k]; ok {
			if cost < rows[i].Cost {
				rows[i].Cost = cost
			}
			return true
		}
		best[k] = len(rows)
		rows = append(rows, Row{Tuple: t, Cost: cost})
		return true
	})
	trunc := c.bud.Err() != nil
	if errors.Is(err, engine.ErrCanceled) {
		trunc, err = true, nil
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	idx := 0
	for {
		take := len(rows) - idx
		if take > want {
			take = want
		}
		page := rows[idx : idx+take]
		idx += take
		if idx == len(rows) {
			c.pages <- cursorPage{rows: page, final: true, err: err, truncated: trunc}
			return
		}
		c.pages <- cursorPage{rows: page, truncated: trunc}
		var ok bool
		want, ok = <-c.reqs
		if !ok {
			return
		}
	}
}

// Fetch returns the next page of up to n rows. A short (or empty) page means
// the stream is exhausted — check Err and Truncated then. After Close it
// returns nil.
func (c *Cursor) Fetch(n int) []Row {
	if n <= 0 || c.closed {
		return nil
	}
	var out []Row
	if len(c.buf) > 0 {
		take := n
		if take > len(c.buf) {
			take = len(c.buf)
		}
		out = append(out, c.buf[:take]...)
		c.buf = c.buf[take:]
		n -= take
	}
	for n > 0 && !c.exhausted {
		c.reqs <- n
		p := <-c.pages
		out = append(out, p.rows...)
		n -= len(p.rows)
		if p.truncated {
			// Latched per page, not only on the final one: a deadline-cut
			// ranked drain knows up front, and every page it serves is part
			// of an incomplete result.
			c.truncated = true
		}
		if p.final {
			c.exhausted = true
			c.err = p.err
			close(c.reqs)
			c.reqsClosed = true
		}
	}
	c.rowsOut += int64(len(out))
	return out
}

// Next returns the next row. The underlying page size escalates
// geometrically (1, 4, 16, …, 256), so the first call does the least work
// that can produce a row and a full drain still amortizes the page
// handshakes.
func (c *Cursor) Next() (Row, bool) {
	if len(c.buf) == 0 {
		if c.closed || c.exhausted {
			return Row{}, false
		}
		want := c.nextWant
		if c.nextWant < 256 {
			c.nextWant *= 4
		}
		c.buf = c.Fetch(want)
		c.rowsOut -= int64(len(c.buf)) // recounted as Next hands them out
		if len(c.buf) == 0 {
			return Row{}, false
		}
	}
	r := c.buf[0]
	c.buf = c.buf[1:]
	c.rowsOut++
	return r, true
}

// Close stops the stream: the budget is stopped, the producer unwinds at its
// next poll, and Close blocks until it has exited — after Close returns, no
// cursor goroutine touches the session. Safe to call multiple times and
// after exhaustion.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.bud.Stop()
	if !c.reqsClosed {
		close(c.reqs)
		c.reqsClosed = true
	}
	for p := range c.pages {
		if p.truncated {
			c.truncated = true
		}
		if p.final {
			c.err = p.err
		}
	}
	c.buf = nil
}

// Err returns the evaluation error of an exhausted (or closed) stream, nil
// while rows remain or when the stream ended cleanly. Budget truncation is
// not an error here — see Truncated.
func (c *Cursor) Err() error { return c.err }

// Truncated reports that the enumeration was cut short by the deadline or
// context (not by Limit): the rows streamed are a sound subset of the full
// result. It latches as soon as any fetched page is known to belong to an
// incomplete result — for a deadline-cut ranked drain that is the FIRST
// page, so paginating consumers see the flag without draining to the end.
func (c *Cursor) Truncated() bool { return c.truncated }

// RowsStreamed returns the number of rows handed to the consumer so far.
func (c *Cursor) RowsStreamed() int64 { return c.rowsOut }

package cxrpq

// Pull-based (any-k) result streaming for prepared sessions. Session.Stream
// returns a Cursor the consumer drives: rows are produced strictly on demand,
// so the first row of a large result costs a small prefix of the full
// evaluation, and an abandoned cursor stops paying immediately.
//
// A page is a pattern.Rows — fixed-arity rows back to back in one []int32
// slab — which is what FetchRows returns and the server encodes from. Most
// pages are windows: a stream over a complete answer filed in the atom store
// serves the set's memoized sorted rows (TupleSet.SortedRows), and a ranked
// stream serves the store's ranked prefix (below). An abandoned window
// cursor has nothing to release.
//
// Every other page comes from a producer the cursor builds on its first fetch
// past what it can see and pulls inside FetchRows, on the fetching goroutine;
// this file starts no goroutine and owns no channel. An unranked cursor that
// no cached answer serves holds the resumable search itself — the members of
// the request's source searched one after the other (ecrpq.UnionRows), union
// members or the bounded engine's mappings alike — and runs it to the end of
// each page it is asked for.
// Between fetches a producer thus holds no lock, reads no session state and
// keeps nothing running, so cursors interleave safely with ApplyDelta as
// long as no fetch overlaps the write, and a dropped cursor is garbage like
// any other value.
//
// Ranked mode (shortest-witness-first) is one sequence per dispatch and
// revision: witness cost ascending, ties in lexicographic order. The atom
// store of the database files, per plan and image bound, one append-only
// ranked prefix — the complete cost tiers of the sequence any cursor has
// computed so far, charged tier by tier — and a ranked cursor pages through
// it. Only a cursor that needs rows past the prefix builds a producer, on the
// fetching goroutine: the any-k enumerator (ecrpq.AnyK) pops rows in
// nondecreasing witness cost, so the first occurrence of a tuple IS its
// minimal cost and top-k costs O(k) queue expansions instead of a full drain;
// a tier is sorted once the next cost pops, and published unless another
// cursor got there first. A weighted stream pulls the same way but shares
// nothing. See "Rows" in internal/README.md.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
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
	// Ignored unless Ranked. Weighted evaluations file nothing in the
	// database's atom store, ranked prefix included — a weight function has
	// no identity to file anything under — so they trade reuse for the
	// custom metric.
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

// Cursor is a pull-based result iterator; obtain one from Session.Stream.
// It is NOT safe for concurrent use (one consumer drives it). Close stops
// its budget and drops its producer; a cursor abandoned without it holds
// nothing but memory and is released by dropping it.
type Cursor struct {
	bud *engine.Budget

	// Every page is a window of the rows the cursor can see: rows [0, pre.N)
	// of the sequence in the shared ranked prefix (nil when the cursor shares
	// none), rows [ownLo, ownLo+own.N) in the cursor's own slab. pos is the
	// next row to serve and end, when set, the Limit.
	pre      *rankedPrefix
	own      pattern.Rows
	ownLo    int
	pos, end int

	// open builds the producer, pull, the first time the cursor needs rows it
	// cannot see. Both are dropped when the producer ends.
	open func() (*pull, error)
	pull *pull

	rowsOut   int64
	err       error
	truncated bool
	exhausted bool
	closed    bool
}

// rowSource is a resumable enumeration a cursor pulls on the fetching
// goroutine: Next returns the next row, in a row the source reuses, with its
// witness cost (0 unless ranked); ok is false once the enumeration has ended,
// and Err then reports whether it failed.
type rowSource interface {
	Next() (row []int32, cost int, ok bool)
	Err() error
}

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
	bud, atoms := engine.NewBudget(opts.Ctx, opts.Deadline), ecrpq.Atoms(s.db)
	if opts.Ranked {
		return s.rankedCursor(atoms, bounded, k, bud, opts)
	}
	// The store only ever holds complete, un-truncated answers: the stream of
	// one is a window of its sorted rows.
	v, hit := atoms.Answer(s.key("eval", k, nil))
	atoms.CountAnswer(hit)
	if resp, _ := v.(Response); resp.Tuples != nil {
		return &Cursor{bud: bud, own: resp.Tuples.SortedRows(), end: opts.Limit}, nil
	}
	ms, _, err := s.source(atoms, bounded, k, bud)
	if err != nil {
		return nil, err
	}
	src := ecrpq.NewUnionRows(ms, ecrpq.Options{Budget: bud, Weight: opts.Weight})
	return &Cursor{bud: bud, end: opts.Limit, open: func() (*pull, error) { return &pull{src: src}, nil }}, nil
}

// rankedCursor opens a ranked stream over atoms. Unweighted, its sequence is
// the ranked prefix filed in atoms, so the prefix and the evaluation behind it
// belong to one revision's store. Construction-time work and failures happen
// here; the producer itself — one any-k root per member of the request's
// source, a union member or a bounded mapping — is built by the first fetch
// past the prefix.
func (s *Session) rankedCursor(atoms *ecrpq.AtomStore, bounded bool, k int, bud *engine.Budget, opts StreamOptions) (*Cursor, error) {
	ms, _, err := s.source(atoms, bounded, k, bud)
	if err != nil {
		return nil, err
	}
	w := opts.Weight
	c := &Cursor{bud: bud, end: opts.Limit}
	if w == nil {
		key := s.key("ranked", k, nil)
		c.pre = atoms.FileAnswer(key, &rankedPrefix{atoms: atoms, key: key}, 0, ecrpq.CarryNone).(*rankedPrefix)
	}
	rev := s.db.Revision()
	c.open = func() (*pull, error) {
		p := &pull{seen: pattern.NewTupleSet(), db: s.db, rev: rev}
		p.ak = ecrpq.NewAnyK(ecrpq.Options{Budget: bud})
		return p, p.ak.AddUnion(ms, w)
	}
	return c, nil
}

// rankedPrefix is the ranked sequence of one dispatch as far as any cursor
// has computed it: whole cost tiers only, appended and never rewritten (a
// window handed out stays valid), and done once the sequence is known to end
// there. It is the answer filed under key in atoms, which counts its reads
// and is charged for each tier as it is published.
type rankedPrefix struct {
	atoms *ecrpq.AtomStore
	key   any // a resultKey

	mu   sync.Mutex
	rows pattern.Rows // with Costs
	done bool
}

// count counts one lookup of the prefix, a hit or a miss; a cursor that
// shares none counts nothing.
func (p *rankedPrefix) count(hit bool) {
	if p != nil {
		p.atoms.CountAnswer(hit)
	}
}

func (p *rankedPrefix) view() (pattern.Rows, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rows, p.done
}

// publish appends tier, rows [lo, lo+tier.N) of the sequence, if the prefix
// holds exactly lo rows; last says the sequence ends with it. It reports
// whether the prefix holds the tier now.
func (p *rankedPrefix) publish(lo int, tier pattern.Rows, last bool) bool {
	p.mu.Lock()
	r, hi := &p.rows, lo+tier.N
	appended := r.N == lo && tier.N > 0
	if appended {
		r.Arity, r.N = tier.Arity, hi
		r.Data = append(r.Data, tier.Data...)
		r.Costs = append(r.Costs, tier.Costs...)
	}
	p.done = p.done || last && r.N == hi
	held := r.N >= hi
	p.mu.Unlock()
	if appended {
		p.atoms.ChargeAnswer(p.key, p, len(tier.Data)+len(tier.Costs))
	}
	return held
}

// pull is a cursor's producer, pulled on the fetching goroutine. Ranked, it
// is the any-k enumerator and the set of tuples it has popped, each at its
// first — minimal — cost; rows [lo, seen.Len()) are the tier in flight at
// cost, published only while db stays at rev. Unranked, it is src, pulled a
// page at a time.
type pull struct {
	ak   *ecrpq.AnyK
	seen *pattern.TupleSet
	lo   int
	cost int32

	src rowSource

	db  *graph.DB
	rev uint64
}

// next pulls the sequence to the end of its next tier and returns the tier's
// rows in ranked order with lo, the position of its first. Tiers that end at
// or before skip, which the caller has, are passed over unsorted. last
// reports that the enumeration ended with this tier — cut short if the
// budget is spent. An unranked producer returns its next page, of up to want
// rows, at skip.
func (p *pull) next(skip, want int) (tier pattern.Rows, lo int, last bool, err error) {
	if p.src != nil {
		var page pattern.Rows
		for page.N < want {
			row, _, ok := p.src.Next()
			if !ok {
				return page, skip, true, p.src.Err()
			}
			if page.Data == nil {
				n := min(want, 1024) // a drain-everything fetch asks for 2^20 rows of what may be ten
				page = pattern.Rows{Arity: len(row), Data: make([]int32, 0, n*len(row))}
			}
			page.Data = append(page.Data, row...)
			page.N++
		}
		return page, skip, false, nil
	}
	for {
		row, cost, ok := p.ak.Next()
		lo, hi, tier := p.lo, p.seen.Len(), p.cost
		if ok && int32(cost) != p.cost {
			p.lo, p.cost = hi, int32(cost) // a costlier row: the tier in flight is whole
		}
		if ok {
			p.seen.AddRow(row) // a tuple popped before was popped at a cost no higher
		}
		if !ok || p.lo > lo && hi > skip {
			return p.ranked(lo, hi, tier), lo, !ok, nil
		}
	}
}

// ranked returns rows [lo, hi) of seen, a tier at cost, in lexicographic
// order as a fresh slab with costs.
func (p *pull) ranked(lo, hi int, cost int32) pattern.Rows {
	rows := p.seen.Rows()
	perm := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int { return slices.Compare(rows.Row(int(a)), rows.Row(int(b))) })
	out := pattern.Rows{Arity: rows.Arity, N: len(perm), Data: make([]int32, 0, len(perm)*rows.Arity), Costs: make([]int32, 0, len(perm))}
	for _, i := range perm {
		out.Data = append(out.Data, rows.Row(int(i))...)
		out.Costs = append(out.Costs, cost)
	}
	return out
}

// more runs the producer to its next tier or page of up to want rows,
// building it first if the cursor has none, and keeps the rows: in the shared
// prefix when they are a whole tier and the prefix ends where it starts (or
// holds it already), else as the cursor's own. The producer is dropped once
// it has ended or the cursor holds rows up to its Limit. A panic of the
// enumeration ends this stream, not the process. more reports false when
// there is no producer left to run.
func (c *Cursor) more(want int) (ran bool) {
	if c.open == nil {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			c.open, c.pull = nil, nil
			c.err, ran = fmt.Errorf("cxrpq: stream producer panicked: %v", r), false
		}
	}()
	if c.pull == nil {
		c.pre.count(false)
		p, err := c.open()
		if err != nil {
			c.open = nil
			c.settle(err)
			return false
		}
		c.pull = p
	}
	tier, lo, last, err := c.pull.next(c.pos, want)
	whole := !last || c.settle(err)
	shared := c.pre != nil && whole && c.pull.db.Revision() == c.pull.rev && c.pre.publish(lo, tier, last)
	if !shared && lo+tier.N > c.pos {
		c.own, c.ownLo = tier.Slice(c.pos-lo, tier.N), c.pos
	}
	if last && whole {
		c.bud = nil // the producer has ended: its budget has nothing left to cut
	}
	if last || c.end > 0 && lo+tier.N >= c.end {
		c.open, c.pull = nil, nil
	}
	return true
}

// settle records how a producer ended and reports whether the sequence it
// produced is complete: a spent budget truncates it, any other error is the
// cursor's.
func (c *Cursor) settle(err error) bool {
	cut := errors.Is(err, engine.ErrCanceled) || c.bud.Err() != nil
	if errors.Is(err, engine.ErrCanceled) {
		err = nil
	}
	c.err, c.truncated = err, c.truncated || cut
	return err == nil && !cut
}

// window returns up to n rows from pos on out of the rows the cursor can see:
// the shared prefix first — an answer hit while the cursor has built no
// producer — then its own.
func (c *Cursor) window(n int) pattern.Rows {
	if c.pre != nil {
		rows, done := c.pre.view()
		if c.pos < rows.N {
			if c.pull == nil && c.open != nil {
				c.pre.count(true)
			}
			return rows.Slice(c.pos, min(c.pos+n, rows.N))
		}
		if done {
			c.open, c.pull = nil, nil
		}
	}
	if i := c.pos - c.ownLo; i < c.own.N {
		return c.own.Slice(i, min(i+n, c.own.N))
	}
	return pattern.Rows{}
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

// nextPage gets the next page of up to n rows — at least one unless the
// stream is exhausted, which it then latches with what the end says.
func (c *Cursor) nextPage(n int) pattern.Rows {
	if c.end > 0 {
		n = min(n, c.end-c.pos)
	}
	for n > 0 {
		if p := c.window(n); p.N > 0 {
			c.pos += p.N
			return p
		}
		if !c.more(n) {
			break
		}
	}
	// A stream its limit completes is not truncated.
	c.exhausted = true
	c.truncated = c.truncated || c.bud.Err() != nil && (c.end == 0 || c.pos < c.end)
	return pattern.Rows{}
}

// FetchRows returns the next page of up to n rows as one slab. A short (or
// empty) page means the stream is exhausted — check Err and Truncated then.
// The page is read-only: a window cursor's pages alias the shared cached
// answer or ranked prefix. After Close it returns no rows.
func (c *Cursor) FetchRows(n int) pattern.Rows {
	if n <= 0 || c.closed {
		return pattern.Rows{}
	}
	var out pattern.Rows
	for out.N < n && !c.exhausted {
		p := c.nextPage(n - out.N)
		if out.N == 0 {
			out = p
		} else if p.N > 0 { // top up in a copy: pages may alias shared storage
			out.Data = append(slices.Clip(out.Data), p.Data...)
			out.Costs = append(slices.Clip(out.Costs), p.Costs...)
			out.N += p.N
		}
	}
	c.rowsOut += int64(out.N)
	return out
}

// Fetch is FetchRows for callers that speak tuples (nil for an empty page).
func (c *Cursor) Fetch(n int) []Row { return rowsOf(c.FetchRows(n)) }

// Bind bounds the production of the following fetches by ctx, in place of
// the StreamOptions.Ctx the stream opened with; nil bounds it by none. A
// server binds each page to the request that fetches it, so a client that
// goes away cuts its page short — the stream is truncated from there, as by
// its deadline — while the cursor parked between pages outlives every
// request.
func (c *Cursor) Bind(ctx context.Context) { c.bud.Bind(ctx) }

// Close stops the budget and drops the producer. Truncated and Err keep what
// they reported before. Safe to call multiple times and after exhaustion.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.bud.Stop()
	c.open, c.pull, c.own = nil, nil, pattern.Rows{}
}

// Err returns the evaluation error of a stream whose enumeration has ended,
// nil while it runs or when it ended cleanly. Budget truncation is not an
// error here — see Truncated.
func (c *Cursor) Err() error { return c.err }

// Truncated reports that the enumeration was cut short by the deadline or
// context (not by Limit): the rows streamed are a sound subset of the full
// result. It latches as soon as any fetched page is known to belong to an
// incomplete result, so paginating consumers see the flag without draining
// to the end.
func (c *Cursor) Truncated() bool { return c.truncated }

// RowsStreamed returns the number of rows handed to the consumer so far.
func (c *Cursor) RowsStreamed() int64 { return c.rowsOut }

package main

// The HTTP/JSON front-end over the prepared-query subsystem: named graph
// databases are loaded at startup (or mutated through /update), and every
// query text of a database is served by a pooled cxrpq.Plan, bound to the
// published view per request, so repeated queries reuse the compiled plan
// and what the database's atom store holds for it: atom facts and answers. A two-tier in-flight limiter degrades before it rejects: beyond
// the soft cap, query evaluation runs under a shed budget and returns the
// rows found so far with "truncated" and "shed" set; only beyond twice the
// cap are requests refused with 429.
//
//	POST /query   {"db":"g1","query":"ans(x,y)\nx y : a","mode":"eval"}
//	POST /plan    {"db":"g1","query":"ans(x,y)\nx y : a"}
//	POST /update  {"db":"g1","edges":"u a v\nv b w","remove":"u a w"}
//	GET  /healthz
//	GET  /stats
//
// /plan evaluates nothing: it reports the join order every evaluation of the
// query backtracks in (fewest unbound endpoints first, ties in query order)
// and what each atom is read for.
//
// A /query travels named stages: decode (the body), resolve (the pooled
// plan of a named database bound to its view, or a fresh one over an inline graph; /plan
// shares this stage), plan (the body becomes one cxrpq.Request, checked
// against the rules of this surface), execute (Session.Do, or Session.Stream
// for a paged or ranked eval) and encode (encode.go: node names are copied
// from the published state's table of pre-quoted names). The session's Do and
// Stream are the only ways the server runs a query. Every endpoint answers
// compact JSON (no whitespace, one trailing newline), built whole in a pooled
// buffer and sent with its Content-Length.
//
// /query streaming, pagination and deadlines: evaluation is pull-based
// (cxrpq.Session.Stream). "limit" caps the rows of this response page; when
// more rows remain the response carries an opaque "cursor" token, and the
// next page is fetched by POSTing {"cursor":"...","limit":n} (no db/query —
// the token identifies the parked stream). Cursors are invalidated by any
// /update of their database (410 Gone), expire after an idle TTL, and the
// registry is capacity-bounded (oldest evicted first); a finished cursor is
// reclaimed with its final page. "deadline_ms" bounds the evaluation in every
// mode: on expiry (or client disconnect — the request context is honored
// inside the evaluation loops) a bool, check or explain that has found no
// witness answers false with "truncated": true, an eval the rows found so far
// with "truncated": true — and every later page of the same cursor carries
// "truncated" too, so a deadline-cut ranked result can never be mistaken
// for a complete top-k mid-pagination. The deadline is set when the stream
// opens and covers the cursor's whole lifetime across pages. "ranked": true
// streams shortest-witness-first (mode=eval only); each answer's witness
// cost is returned in "costs". The ranked stream is incremental (any-k over
// partial assignments): the first row surfaces after one cheapest-extension
// chain, not a full drain. "weights" (ranked
// eval only) generalizes the witness cost from edge count to a per-label
// weight map, e.g. {"a":1,"b":4}; unlisted labels cost 1, negative weights
// clamp to 0. "rows_streamed" counts rows delivered by the cursor so far;
// /stats aggregates per-database time-to-first-row and rows-streamed
// counters.
//
// Cursor tokens: a ranked cursor on a durable database carries its state in
// its token — the request that opened it (db, query, semantics, k, weights,
// page size), its revision pin and deadline — and each page's token adds the
// rows delivered and an idle expiry. A fetch that finds no parked stream at
// the token's position (after a restart, say) runs the request through
// /query's stages again and fast-forwards under its deadline; a stale
// revision or a passed deadline or expiry answers 410. Any other token is a
// bare random id. Reads write no WAL: they take no lock a writer holds.
//
// /update delta semantics: the request is one batched graph.Delta — "edges"
// are added (interning unknown node names), "remove" deletes one occurrence
// of each listed edge, which must exist (a delta naming a missing edge or
// node is rejected with 400 and nothing is applied). Reads are MVCC: every
// database publishes an immutable graph.Snapshot view (dbState), and /query,
// /plan and parked cursors run entirely against the published state — they
// take no lock a writer can hold, so reads never block on /update and an
// open cursor keeps its pinned revision. The writer applies the batch to its
// private live DB, makes it durable (below), then publishes a fresh snapshot
// with the database's atom store carried over once (ecrpq.AtomStore): a
// batch over known labels, inserts or removals, carries every entry — header
// copies, no search — and the eval answers and re-read true verdicts, stale;
// the first read of an entry at the new revision brings its supports, row
// tables and verdict up to date over the batch's frontier, and
// the first read of an answer merges in the rows of joins seeded on that
// frontier. Once the window since the answer removed edges, an eval answer
// first drops its rows with a frontier node at the position of an output
// source variable — when every atom's source variable is reached along the
// pattern's edges from an output source variable (see internal/ecrpq/delta.go);
// otherwise, and for a verdict, the answer is dropped ("atoms".result_dropped)
// and computed again.
// Brand-new labels fall back to a fresh store. The plan pool is the entry's and survives the publish. The
// response reports the net delta; /stats exposes the per-database
// maintenance counters and the entries not yet settled.
//
// Durability (-data-dir): each named database lives in <dir>/<name> as a
// checkpoint plus a write-ahead log of delta batches (graph.Store). /update
// acknowledges only after the WAL record is fsynced — a kill -9 at any
// moment loses no acknowledged batch; on restart the server recovers by
// loading the checkpoint and replaying the log (a torn tail is an append
// that was never acknowledged, and is dropped). A WAL append failure leaves
// the last durable state published and fails the batch with 500; the entry
// then refuses further writes (503) rather than diverge from its log.
// -follower serves the same directories read-only, tailing each WAL and
// republishing snapshots as the leader's batches land; /update is refused
// with 403 there. /stats carries the durability counters (wal_bytes,
// checkpoints, replayed_records, ...).

import (
	"bytes"
	"cmp"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

type serverOptions struct {
	maxInflight int           // soft admission cap; hard rejection at 2x
	sessionCap  int           // pooled plans per database
	shedBudget  time.Duration // eval budget imposed on requests admitted beyond the soft cap
	cursorCap   int           // open cursors held across requests
	cursorTTL   time.Duration // idle cursor lifetime
	pprof       bool          // mount net/http/pprof under /debug/pprof/
}

func defaultOptions() serverOptions {
	return serverOptions{
		maxInflight: 64, sessionCap: 128,
		shedBudget: 100 * time.Millisecond,
		cursorCap:  64, cursorTTL: time.Minute,
	}
}

// dbState is one published MVCC epoch of a database: an immutable snapshot
// view of the graph. Readers load the current state with a single atomic
// pointer read and then share nothing with the writer — the view's storage
// is frozen (graph.Snapshot), and so is what its atom store derives from it.
type dbState struct {
	db    *graph.DB  // frozen snapshot view
	rev   uint64     // == db.Revision(), cached for the lock-free cursor check
	names *nameTable // db's node names, quoted for the encoder
}

// dbEntry is one named database: the writer-owned live DB with its
// durability hooks, and the atomically published read state. Queries never
// lock the entry; /update (or the follower tail loop) serializes on writeMu,
// mutates live, persists, and publishes a successor dbState.
type dbEntry struct {
	name string

	writeMu sync.Mutex // serializes mutators; guards live mutation, store, walErr
	// live is the writer-private mutable DB. The pointer is atomic only
	// because a follower reload swaps it while /stats reads the (atomic)
	// maintenance counters through it; all mutation happens under writeMu.
	live     atomic.Pointer[graph.DB]
	store    *graph.Store    // durability, nil without -data-dir
	follower *graph.Follower // non-nil on a read-only replica
	walErr   error           // a failed append wedges the entry (503)

	state atomic.Pointer[dbState]

	planMu sync.Mutex
	plans  map[string]*cxrpq.Plan // query text -> prepared plan, bound per request

	// onPublish fires after every publish with the new revision; the server
	// hooks it to eagerly invalidate parked cursors pinned to older
	// revisions, so the leader's /update and a follower's tail loop enforce
	// the same 410 contract at the same moment.
	onPublish func(rev uint64)

	qmu sync.Mutex
	qs  queryCounters
}

// publish snapshots the live DB and carries the previous view's atom store
// onto the new one — one delta pass, whatever the pool holds: the MVCC
// publish step. The name table extends the previous state's unless a
// follower reload swapped the live DB. The caller holds writeMu.
func (e *dbEntry) publish() *dbState {
	live := e.live.Load()
	view := live.Snapshot().DB()
	ns := &dbState{db: view, rev: view.Revision()}
	var names *nameTable
	if old := e.state.Load(); old != nil {
		names = old.names
		ecrpq.Atoms(old.db).CarryTo(view)
	}
	ns.names = quoteNames(names, live, view)
	e.state.Store(ns)
	if e.onPublish != nil {
		e.onPublish(ns.rev)
	}
	return ns
}

// queryCounters aggregates the streaming telemetry of one database's
// /query traffic: how fast first rows arrive and how much is delivered,
// shed or cut short.
type queryCounters struct {
	Queries      int64 // /query evaluations (cursor fetches excluded)
	RowsStreamed int64 // rows delivered, across first pages and cursor fetches
	TTFRTotalNS  int64 // summed time to first row (or to completion when empty)
	Shed         int64 // evaluations degraded by the soft-saturation limiter
	Truncated    int64 // evaluations cut by a deadline, context or shed budget
}

func (e *dbEntry) recordQuery(ttfr time.Duration, rows int, shed, truncated bool) {
	if e == nil {
		return // inline one-off graph: no entry to account to
	}
	e.qmu.Lock()
	e.qs.Queries++
	e.qs.RowsStreamed += int64(rows)
	e.qs.TTFRTotalNS += int64(ttfr)
	if shed {
		e.qs.Shed++
	}
	if truncated {
		e.qs.Truncated++
	}
	e.qmu.Unlock()
}

func (e *dbEntry) recordRows(rows int) {
	if e == nil {
		return
	}
	e.qmu.Lock()
	e.qs.RowsStreamed += int64(rows)
	e.qmu.Unlock()
}

// plan returns the pooled plan of a query text, preparing it on first use.
// The pool is bounded: on overflow the whole pool is dropped (plans are pure
// caches, and the answers the atom store holds for a dropped one are never
// hit again).
func (e *dbEntry) plan(src string, cap int) (*cxrpq.Plan, error) {
	e.planMu.Lock()
	if p, ok := e.plans[src]; ok {
		e.planMu.Unlock()
		return p, nil
	}
	e.planMu.Unlock()
	// Compile outside the lock: preparing a plan walks the whole query, and
	// holding planMu through it would serialize pooled lookups behind it.
	p, err := cxrpq.PrepareSrc(src)
	if err != nil {
		return nil, err
	}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if have, ok := e.plans[src]; ok { // raced with another compiler
		return have, nil
	}
	if e.plans == nil || len(e.plans) >= cap {
		e.plans = map[string]*cxrpq.Plan{}
	}
	e.plans[src] = p
	return p, nil
}

type server struct {
	opts     serverOptions
	inflight chan struct{} // capacity 2*maxInflight: soft cap degrades, hard cap rejects
	start    time.Time
	cursors  *cursorRegistry

	mu  sync.Mutex
	dbs map[string]*dbEntry

	stop  chan struct{}  // closed by close: ends the follower tails
	tails sync.WaitGroup // the tail goroutines follow started
}

func newServer(opts serverOptions) *server {
	def := defaultOptions()
	if opts.maxInflight <= 0 {
		opts.maxInflight = def.maxInflight
	}
	if opts.sessionCap <= 0 {
		opts.sessionCap = def.sessionCap
	}
	if opts.shedBudget <= 0 {
		opts.shedBudget = def.shedBudget
	}
	if opts.cursorCap <= 0 {
		opts.cursorCap = def.cursorCap
	}
	if opts.cursorTTL <= 0 {
		opts.cursorTTL = def.cursorTTL
	}
	return &server{
		opts:     opts,
		inflight: make(chan struct{}, 2*opts.maxInflight),
		start:    time.Now(),
		cursors:  newCursorRegistry(opts.cursorCap, opts.cursorTTL),
		dbs:      map[string]*dbEntry{},
		stop:     make(chan struct{}),
	}
}

// follow starts the tail loop of a follower entry; close stops and joins it.
func (s *server) follow(e *dbEntry, interval time.Duration) {
	s.tails.Add(1)
	go func() {
		defer s.tails.Done()
		e.tail(interval, s.stop)
	}()
}

// close releases what the server holds beyond its requests, once, after the
// last of them has completed: the follower tails are stopped and joined, and
// every durable store is fsynced and closed (under the entry's writeMu, so an
// /update that outlived the shutdown grace finishes its append first and the
// next one finds the WAL closed and wedges with 503).
func (s *server) close() error {
	close(s.stop)
	s.tails.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, e := range s.dbs {
		if e.store == nil {
			continue
		}
		e.writeMu.Lock()
		if err := e.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close store %s: %w", e.name, err))
		}
		e.writeMu.Unlock()
	}
	return errors.Join(errs...)
}

// addDB registers a named database and publishes its first snapshot. The
// returned entry lets startup attach durability hooks (store, follower)
// before the server begins accepting requests.
func (s *server) addDB(name string, db *graph.DB) *dbEntry {
	e := &dbEntry{name: name}
	e.onPublish = func(rev uint64) { s.invalidateCursors(e, rev) }
	e.live.Store(db)
	e.publish()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dbs[name] = e
	return e
}

// invalidateCursors drops and closes every parked cursor of e pinned to a
// revision other than rev. It runs on every publish — the fetch-time lazy
// check remains as a backstop for cursors parked concurrently with a
// publish, but eager invalidation frees the parked streams immediately.
func (s *server) invalidateCursors(e *dbEntry, rev uint64) {
	var stale []*cursorRec
	s.cursors.mu.Lock()
	for id, rec := range s.cursors.recs {
		if rec.entry == e && rec.rev != rev {
			stale = append(stale, rec)
			delete(s.cursors.recs, id)
			delete(s.cursors.last, id)
		}
	}
	s.cursors.mu.Unlock()
	closeAll(stale)
}

// tail is the follower-mode write path: poll the leader's WAL on a cadence
// and republish a snapshot whenever new records were applied (or a leader
// checkpoint forced a reload, which swaps the DB identity). It takes the
// same writeMu a leader's /update would, so the publish discipline is
// identical; readers stay lock-free either way. Runs until stop is closed.
func (e *dbEntry) tail(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		e.writeMu.Lock()
		n, err := e.follower.Poll()
		if err != nil {
			log.Printf("follower %s: poll: %v", e.name, err)
		}
		if db := e.follower.DB(); n > 0 || db != e.live.Load() {
			e.live.Store(db)
			e.publish()
		}
		e.writeMu.Unlock()
	}
}

func (s *server) entry(name string) (*dbEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.dbs[name]
	return e, ok
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.limited(s.handleQuery))
	mux.HandleFunc("/plan", s.limited(s.handlePlan))
	mux.HandleFunc("/update", s.limited(s.handleUpdate))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	if s.opts.pprof {
		// Mounted explicitly (not via the package's DefaultServeMux side
		// effect) so profiling endpoints exist only behind the -pprof flag
		// and never bypass it; deliberately outside the in-flight limiter.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// shedKey marks a request admitted beyond the soft in-flight cap; /query
// evaluates it under the shed budget and reports partial rows instead of
// refusing outright.
type shedKey struct{}

// limited wraps a handler with the two-tier in-flight admission gate. Up to
// maxInflight requests run normally; between maxInflight and 2*maxInflight
// they are admitted degraded (marked via shedKey — query work is bounded by
// the shed budget and returns the rows found so far with "truncated" and
// "shed" set, which beats returning nothing); past the hard cap the
// request is refused with 429 rather than queued unboundedly.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			if len(s.inflight) > s.opts.maxInflight {
				r = r.WithContext(context.WithValue(r.Context(), shedKey{}, true))
			}
			h(w, r)
		default:
			writeErr(w, http.StatusTooManyRequests, fmt.Errorf("server busy: %d requests in flight", 2*s.opts.maxInflight))
		}
	}
}

// cursorRec is one parked stream held across /query pages: the pull
// cursor (it reads a frozen snapshot view, so /update never perturbs it
// mid-stream), the name table of the state it opened on, and the revision
// it opened at. A mutation still invalidates the cursor at the API level —
// pages of one stream all come from the current published revision, by
// contract — but the check is a lock-free comparison against the published
// state, not a lock shared with the writer.
type cursorRec struct {
	id    string
	state string // a stateful token's encoded cursorState, "" for a bare token

	mu       sync.Mutex // serializes fetches; cursors are not concurrent-safe
	cur      *cxrpq.Cursor
	entry    *dbEntry // nil for inline one-off graphs
	names    *nameTable
	rev      uint64
	fragment string
	limit    int // default page size for fetches that give none
	closed   bool
}

func (rec *cursorRec) close() {
	if !rec.closed {
		rec.closed = true
		rec.cur.Close()
	}
}

// token is the cursor's token at its position: its id, or for a stateful
// cursor a cursorToken that expires ttl from now.
func (rec *cursorRec) token(ttl time.Duration) string {
	return cursorToken{rec.id, rec.state, rec.cur.RowsStreamed(), time.Now().Add(ttl).UnixMilli()}.String()
}

// cursorState is what a stateful token carries beyond its position: the
// request that opened the cursor, its page size filled in, and the revision
// and absolute deadline (unix ms, 0 for none) it runs under. Ranked answers
// are a function of these, so a stream can be rebuilt from them.
type cursorState struct {
	Req      queryRequest `json:"req"`
	Rev      uint64       `json:"rev"`
	Deadline int64        `json:"deadline,omitempty"`
}

func (st cursorState) encode() string {
	b, _ := json.Marshal(st) // strings and numbers always marshal
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodeState(s string) (st cursorState, err error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// cursorToken is a /query cursor: a bare registry id, or
// "id.state.rows.expiry" — the encoded cursorState, the rows delivered before
// the page it fetches and its idle expiry (unix ms).
type cursorToken struct {
	id, state    string
	rows, expiry int64
}

func parseToken(s string) (t cursorToken, err error) {
	id, rest, stateful := strings.Cut(s, ".")
	if t.id = id; !stateful {
		return t, nil
	}
	if f := strings.Split(rest, "."); len(f) == 3 && f[0] != "" {
		t.state = f[0]
		if t.rows, err = strconv.ParseInt(f[1], 10, 64); err == nil {
			t.expiry, err = strconv.ParseInt(f[2], 10, 64)
		}
	}
	if t.state == "" || err != nil {
		return t, fmt.Errorf("malformed cursor token")
	}
	return t, nil
}

func (t cursorToken) String() string {
	if t.state == "" {
		return t.id
	}
	return fmt.Sprintf("%s.%s.%d.%d", t.id, t.state, t.rows, t.expiry)
}

// cursorRegistry maps opaque tokens to parked cursors, bounded by capacity
// (least-recently-used evicted first) and idle TTL.
type cursorRegistry struct {
	mu   sync.Mutex
	recs map[string]*cursorRec
	last map[string]time.Time
	cap  int
	ttl  time.Duration

	randRead func([]byte) (int, error) // cursor-token entropy: rand.Read, a failing reader in tests
}

func newCursorRegistry(cap int, ttl time.Duration) *cursorRegistry {
	return &cursorRegistry{recs: map[string]*cursorRec{}, last: map[string]time.Time{}, cap: cap, ttl: ttl, randRead: rand.Read}
}

// put registers a cursor under a fresh token and returns the token plus any
// records evicted by TTL or capacity — the caller closes those outside the
// registry lock. A crypto/rand failure is reported, not panicked: it fails
// one request, the server keeps serving. A non-positive capacity means
// unbounded — the eviction loop must not run then, since with nothing
// evictable per pass it would never terminate.
func (cr *cursorRegistry) put(rec *cursorRec) (string, []*cursorRec, error) {
	var b [16]byte
	if _, err := cr.randRead(b[:]); err != nil {
		return "", nil, fmt.Errorf("minting cursor token: %w", err)
	}
	tok := hex.EncodeToString(b[:])
	return tok, cr.putAt(tok, rec), nil
}

// putAt registers rec under a caller-chosen token — a rebuilt stateful
// cursor parks again under its token's id, replacing what is parked there.
func (cr *cursorRegistry) putAt(tok string, rec *cursorRec) []*cursorRec {
	now := time.Now()
	cr.mu.Lock()
	defer cr.mu.Unlock()
	evicted := cr.sweepLocked(now)
	if old := cr.recs[tok]; old != nil {
		evicted = append(evicted, old)
		delete(cr.recs, tok)
		delete(cr.last, tok)
	}
	for cr.cap > 0 && len(cr.recs) >= cr.cap {
		oldest, at := "", now
		for id, t := range cr.last {
			if !t.After(at) {
				oldest, at = id, t
			}
		}
		evicted = append(evicted, cr.recs[oldest])
		delete(cr.recs, oldest)
		delete(cr.last, oldest)
	}
	rec.id = tok
	cr.recs[tok] = rec
	cr.last[tok] = now
	return evicted
}

// get looks a token up, refreshing its idle clock. Expired records are
// swept and returned for the caller to close.
func (cr *cursorRegistry) get(id string) (*cursorRec, []*cursorRec) {
	now := time.Now()
	cr.mu.Lock()
	defer cr.mu.Unlock()
	evicted := cr.sweepLocked(now)
	rec := cr.recs[id]
	if rec != nil {
		cr.last[id] = now
	}
	return rec, evicted
}

func (cr *cursorRegistry) drop(id string) {
	cr.mu.Lock()
	delete(cr.recs, id)
	delete(cr.last, id)
	cr.mu.Unlock()
}

func (cr *cursorRegistry) open() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return len(cr.recs)
}

func (cr *cursorRegistry) sweepLocked(now time.Time) []*cursorRec {
	var evicted []*cursorRec
	for id, t := range cr.last {
		if now.Sub(t) > cr.ttl {
			evicted = append(evicted, cr.recs[id])
			delete(cr.recs, id)
			delete(cr.last, id)
		}
	}
	return evicted
}

func closeAll(recs []*cursorRec) {
	for _, rec := range recs {
		rec.mu.Lock()
		rec.close()
		rec.mu.Unlock()
	}
}

type queryRequest struct {
	DB         string   `json:"db,omitempty"`          // named database, or
	Graph      string   `json:"graph,omitempty"`       // inline graph (one "from label to" per line)
	Query      string   `json:"query"`                 // textual CXRPQ
	Mode       string   `json:"mode,omitempty"`        // eval (default) | bool | check | explain
	Semantics  string   `json:"semantics,omitempty"`   // auto (default) | bounded | log
	K          *int     `json:"k,omitempty"`           // image bound, required for semantics=bounded (k ≥ 0)
	Tuple      []string `json:"tuple,omitempty"`       // node names (check/explain)
	Limit      int      `json:"limit,omitempty"`       // rows per page (eval); 0 = one large page
	DeadlineMS int      `json:"deadline_ms,omitempty"` // evaluation budget; expiry returns partial rows with truncated
	Ranked     bool     `json:"ranked,omitempty"`      // shortest-witness-first order with costs (eval)
	Cursor     string   `json:"cursor,omitempty"`      // continue a paginated stream; excludes db/graph/query

	// Weights maps single-rune edge labels to a per-edge witness cost
	// (ranked eval only): unlisted labels cost 1, negatives clamp to 0.
	Weights map[string]int `json:"weights,omitempty"`
}

// weightFromMap compiles a request weight map into an engine.Weight. Keys
// must be single runes; nil/empty maps mean unit cost (nil Weight).
func weightFromMap(m map[string]int) (engine.Weight, error) {
	if len(m) == 0 {
		return nil, nil
	}
	w := make(map[rune]int32, len(m))
	for k, v := range m {
		r := []rune(k)
		if len(r) != 1 {
			return nil, fmt.Errorf("weights key %q must be a single edge label", k)
		}
		w[r[0]] = int32(v)
	}
	return func(label rune) int32 {
		if c, ok := w[label]; ok {
			return c
		}
		return 1
	}, nil
}

type explanationJSON struct {
	Nodes  map[string]string `json:"nodes"`            // node variable -> node name
	Words  []string          `json:"words"`            // per query edge
	Images map[string]string `json:"images,omitempty"` // string variable -> image
}

type errResponse struct {
	Error string `json:"error"`
}

// bodies pools the buffers responses are built in, so that they stay grown.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledJSON is the largest response buffer worth keeping: one 50 000-row
// answer must not pin its megabytes in the pool behind small responses.
const maxPooledJSON = 4 << 20

// send writes one response whose body fill leaves in a pooled buffer. The body
// is built before the header is written, so it goes out with its
// Content-Length, and a fill that fails answers 500 with the error instead.
func send(w http.ResponseWriter, status int, fill func(buf *bytes.Buffer) error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	if err := fill(buf); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(errResponse{Error: err.Error()}) // a string always marshals
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the client went away; nothing to report it to
	if buf.Cap() <= maxPooledJSON {
		bodies.Put(buf)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	send(w, status, func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(v) })
}

// writeQuery sends a /query response: appended into the buffer's spare capacity
// (encode.go), or through encoding/json when it carries an explanation.
func writeQuery(w http.ResponseWriter, out *queryResponse) {
	if out.Explanation != nil {
		writeJSON(w, http.StatusOK, out)
		return
	}
	send(w, http.StatusOK, func(buf *bytes.Buffer) error {
		_, err := buf.Write(appendQueryResponse(buf.AvailableBuffer(), out))
		return err
	})
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errResponse{Error: err.Error()})
}

// maxBodyBytes bounds a request body: room for an inline graph or an update
// batch, none for an endless upload.
const maxBodyBytes = 16 << 20

// decode is the decode stage every POST endpoint starts with: it answers 405
// to any other method, then decodes the JSON body into req, or answers 413
// for a body over maxBodyBytes and 400 for any other failure; it reports
// whether the request got past it.
func decode(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("bad request body: %v", err))
	return false
}

// handleQuery is /query, in stages: decode the body, resolve the session
// (resolve), plan the request (planQuery), execute it — streamed through a
// cursor (streamQuery) or answered whole (execute) — and encode the response.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Cursor != "" {
		s.handleCursorFetch(w, r, &req)
		return
	}
	if req.Query == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return
	}
	if req.Limit < 0 || req.DeadlineMS < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("limit and deadline_ms must be nonnegative"))
		return
	}
	t, ok := s.resolve(w, req.DB, req.Graph, req.Query)
	if !ok {
		return
	}
	x, err := s.planQuery(r, &req, t)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if x.do.Op == "eval" && (req.Limit > 0 || req.Ranked) {
		s.streamQuery(w, r, x)
		return
	}
	s.execute(w, r, x)
}

// target is what the resolve stage finds for a (database, query text) pair:
// the session that answers it, the snapshot view it reads with that view's
// name table and, on a named database, the entry its traffic is accounted to
// (nil on an inline graph).
type target struct {
	sess  *cxrpq.Session
	db    *graph.DB
	names *nameTable
	e     *dbEntry
}

// resolve is the resolve stage of /query and /plan: the pooled plan of a
// named database bound to its published MVCC view — no lock a writer holds is
// taken, so the evaluation never waits on a writer and never observes a
// mutation mid-stream — or a fresh one over an inline one-off graph. A pair that does not resolve is
// answered here, 404 for an unknown database and 400 otherwise.
func (s *server) resolve(w http.ResponseWriter, dbName, graphText, query string) (target, bool) {
	var t target
	var err error
	status := http.StatusBadRequest
	switch {
	case dbName != "" && graphText != "":
		err = fmt.Errorf("give either db or graph, not both")
	case dbName != "":
		e, ok := s.entry(dbName)
		if !ok {
			status, err = http.StatusNotFound, fmt.Errorf("unknown db %q", dbName)
			break
		}
		st := e.state.Load()
		t.e, t.db, t.names = e, st.db, st.names
		var p *cxrpq.Plan
		if p, err = e.plan(query, s.opts.sessionCap); err == nil {
			t.sess = p.Bind(st.db)
		}
	case graphText != "":
		if t.db, err = graph.Parse(graphText); err != nil {
			break
		}
		t.names = quoteNames(nil, t.db, t.db)
		var p *cxrpq.Plan
		if p, err = cxrpq.PrepareSrc(query); err == nil {
			t.sess = p.Bind(t.db)
		}
	default:
		err = fmt.Errorf("missing db or graph")
	}
	if err != nil {
		writeErr(w, status, err)
	}
	return t, err == nil
}

// queryExec is a /query request past its plan stage: the one value the
// execute and encode stages read.
type queryExec struct {
	target
	req      *queryRequest
	do       cxrpq.Request // Op, Semantics, K and Tuple; execute adds the budget
	weight   engine.Weight
	start    time.Time
	deadline time.Time // the request's deadline_ms, or the shed budget if sooner
	shed     bool      // admitted beyond the soft in-flight cap
}

// planQuery is the plan stage of /query: it checks what the request asks for
// against the HTTP surface's rules — the operation, its semantics, which
// options apply to which mode, the tuple's node names — and fixes the
// deadline, so that execute only runs.
func (s *server) planQuery(r *http.Request, req *queryRequest, t target) (*queryExec, error) {
	sem, k, err := resolveSemantics(req.Semantics, req.K)
	if err != nil {
		return nil, err
	}
	x := &queryExec{target: t, req: req, do: cxrpq.Request{Op: req.Mode, Semantics: sem, K: k}}
	if x.do.Op == "" {
		x.do.Op = "eval"
	}
	switch x.do.Op {
	case "eval", "bool", "check", "explain":
	default:
		return nil, fmt.Errorf("unknown mode %q", x.do.Op)
	}
	if (req.Limit > 0 || req.Ranked) && x.do.Op != "eval" {
		return nil, fmt.Errorf("limit and ranked apply to mode=eval")
	}
	if len(req.Weights) > 0 && !req.Ranked {
		return nil, fmt.Errorf("weights apply to ranked eval")
	}
	if x.weight, err = weightFromMap(req.Weights); err != nil {
		return nil, err
	}
	if x.do.Op == "check" || (x.do.Op == "explain" && len(req.Tuple) > 0) {
		x.do.Tuple = make(pattern.Tuple, len(req.Tuple))
		for i, name := range req.Tuple {
			id, ok := t.db.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown node %q", name)
			}
			x.do.Tuple[i] = id
		}
	}
	x.start = time.Now()
	if req.DeadlineMS > 0 {
		x.deadline = x.start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	if x.shed = r.Context().Value(shedKey{}) != nil; x.shed {
		// Admitted beyond the soft cap: bound the work and return what fits.
		if sd := x.start.Add(s.opts.shedBudget); x.deadline.IsZero() || sd.Before(x.deadline) {
			x.deadline = sd
		}
	}
	return x, nil
}

// execute answers a request whole, still budgeted: the request context is
// honored inside the evaluation loops, so a disconnected client stops burning
// its in-flight slot. A truncated eval yields the sound partial set.
func (s *server) execute(w http.ResponseWriter, r *http.Request, x *queryExec) {
	x.do.Budget = engine.NewBudget(r.Context(), x.deadline)
	resp := x.sess.Do(x.do)
	truncated := errors.Is(resp.Err, engine.ErrCanceled)
	if resp.Err != nil && !truncated {
		writeErr(w, http.StatusBadRequest, resp.Err)
		return
	}
	out := x.encode(resp, truncated)
	x.e.recordQuery(time.Since(x.start), out.Count, x.shed, truncated)
	writeQuery(w, &out)
}

// encode is the encode stage of a request answered whole: the Response as
// the /query JSON says it.
func (x *queryExec) encode(resp cxrpq.Response, truncated bool) queryResponse {
	out := queryResponse{
		Fragment:  x.sess.Fragment(),
		Truncated: truncated,
		Shed:      x.shed,
		ElapsedMS: float64(time.Since(x.start).Microseconds()) / 1000,
	}
	switch x.do.Op {
	case "eval":
		if resp.Tuples != nil {
			out.setRows(x.names, resp.Tuples.SortedRows(), pattern.Rows{})
		}
		out.RowsStreamed = int64(out.Count)
	case "bool", "check":
		b := resp.OK
		out.Bool = &b
		if b {
			out.Count = 1
		}
	case "explain":
		b := resp.OK
		out.Bool = &b
		if ex := resp.Explanation; ex != nil {
			out.Explanation = &explanationJSON{Nodes: map[string]string{}, Words: ex.Words, Images: ex.Images}
			for v, id := range ex.NodeOf {
				out.Explanation.Nodes[v] = x.db.Name(id)
			}
			out.Count = 1
		}
	}
	return out
}

// streamQuery executes mode=eval through the pull-based cursor: the first
// row is fetched alone (that latency is the per-database time-to-first-row
// statistic), the rest of the page follows, and an unfinished stream is
// parked in the cursor registry under an opaque token — unless the request
// was admitted degraded, in which case the remainder is shed.
func (s *server) streamQuery(w http.ResponseWriter, r *http.Request, x *queryExec) {
	// A parked cursor outlives its opening request, and the request context
	// is canceled the moment this response is written — so only a shed
	// stream (which never parks) is bound to it. Parked cursors are bounded
	// by their deadline and the registry's idle TTL instead.
	var ctx context.Context
	if x.shed {
		ctx = r.Context()
	}
	cur, err := x.sess.Stream(cxrpq.StreamOptions{
		Semantics: x.do.Semantics, K: x.do.K, Ranked: x.req.Ranked, Weight: x.weight,
		Deadline: x.deadline, Ctx: ctx,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	lim := cmp.Or(x.req.Limit, defaultPage)
	first := cur.FetchRows(1)
	ttfr := time.Since(x.start)
	var rest pattern.Rows
	if first.N == 1 && lim > 1 {
		rest = cur.FetchRows(lim - 1)
	}
	out := queryResponse{Fragment: x.sess.Fragment(), Shed: x.shed, RowsStreamed: cur.RowsStreamed()}
	out.setRows(x.names, first, rest)
	switch {
	case out.Count < lim: // exhausted (or cut): the stream is done
		if err := cur.Err(); err != nil {
			cur.Close()
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		out.Truncated = cur.Truncated()
		cur.Close()
	case x.shed:
		// Degraded admission never parks a cursor: the remainder is shed.
		cur.Close()
		out.Truncated = true
	default:
		rec := &cursorRec{cur: cur, entry: x.e, names: x.names, rev: x.db.Revision(),
			fragment: x.sess.Fragment(), limit: lim}
		if x.e != nil && x.e.store != nil && x.req.Ranked {
			// The token carries the stream (unranked order is not
			// deterministic enough to replay).
			st := cursorState{Req: *x.req, Rev: rec.rev}
			st.Req.Limit, st.Req.DeadlineMS = lim, 0
			if !x.deadline.IsZero() {
				st.Deadline = x.deadline.UnixMilli()
			}
			rec.state = st.encode()
		}
		_, evicted, err := s.cursors.put(rec)
		if err != nil {
			cur.Close()
			closeAll(evicted)
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		out.Cursor = rec.token(s.opts.cursorTTL)
		// A page cut short by the deadline must say so even when the stream
		// parks: later pages inherit the flag from the cursor as well.
		out.Truncated = cur.Truncated()
		defer closeAll(evicted)
	}
	out.ElapsedMS = float64(time.Since(x.start).Microseconds()) / 1000
	x.e.recordQuery(ttfr, out.Count, x.shed, out.Truncated)
	writeQuery(w, &out)
}

// defaultPage is the page size of a stream opened without a limit.
const defaultPage = 4096

// handleCursorFetch continues a parked stream: {"cursor":"...","limit":n}.
// The fetch reads the cursor's pinned snapshot — no database lock exists to
// take — and a cursor whose database has published a newer revision since
// it opened is invalidated rather than resumed across epochs. A stateful
// token that finds no stream parked at its position rebuilds it (reopen).
func (s *server) handleCursorFetch(w http.ResponseWriter, r *http.Request, req *queryRequest) {
	if req.Query != "" || req.DB != "" || req.Graph != "" || req.Mode != "" || req.Semantics != "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("a cursor request carries only cursor and limit"))
		return
	}
	if req.Limit < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("limit must be nonnegative"))
		return
	}
	tok, err := parseToken(req.Cursor)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rec, evicted := s.cursors.get(tok.id)
	defer closeAll(evicted)
	if rec != nil {
		rec.mu.Lock()
		if rec.closed || rec.state != tok.state || tok.state != "" && rec.cur.RowsStreamed() != tok.rows {
			rec.mu.Unlock()
			rec = nil
		}
	}
	if rec == nil {
		if rec = s.reopen(w, r, tok); rec == nil {
			return
		}
	}
	defer rec.mu.Unlock()
	if rec.entry != nil && rec.entry.state.Load().rev != rec.rev {
		s.cursors.drop(rec.id)
		rec.close()
		writeErr(w, http.StatusGone, fmt.Errorf("cursor invalidated by database update"))
		return
	}
	lim := req.Limit
	if lim <= 0 {
		lim = rec.limit
	}
	start := time.Now()
	out := queryResponse{Fragment: rec.fragment}
	out.setRows(rec.names, rec.cur.FetchRows(lim), pattern.Rows{})
	out.RowsStreamed = rec.cur.RowsStreamed()
	if out.Count < lim { // exhausted: reclaim with the final page
		s.cursors.drop(rec.id)
		if err := rec.cur.Err(); err != nil {
			rec.close()
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		out.Truncated = rec.cur.Truncated()
		rec.close()
	} else {
		out.Cursor = rec.token(s.opts.cursorTTL)
		// Every page of a cut stream carries the flag, not just the last.
		out.Truncated = rec.cur.Truncated()
	}
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	rec.entry.recordRows(out.Count)
	writeQuery(w, &out)
}

// reopen rebuilds the stream of a token no parked cursor serves through the
// stages a /query takes — resolve, planQuery, Session.Stream —
// fast-forwards it past the rows the token has delivered, under the token's
// deadline, and parks it again under the token's id. It returns the record
// locked, or nil once it has answered: 410 for a bare token, an unknown
// database, an unranked state, a passed deadline or expiry, or a revision no
// longer current; 400 for a state that does not decode or /query refuses.
func (s *server) reopen(w http.ResponseWriter, r *http.Request, tok cursorToken) *cursorRec {
	st, err := decodeState(tok.state)
	if tok.state != "" && err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed cursor token: %v", err))
		return nil
	}
	// A publish after this check fails the fetch's own revision check.
	e, ok := s.entry(st.Req.DB) // a bare token's state is empty: no db
	now := time.Now().UnixMilli()
	if !ok || e.state.Load().rev != st.Rev || !st.Req.Ranked || now > tok.expiry || st.Deadline != 0 && now >= st.Deadline {
		writeErr(w, http.StatusGone, fmt.Errorf("unknown, expired or invalidated cursor"))
		return nil
	}
	t, ok := s.resolve(w, st.Req.DB, st.Req.Graph, st.Req.Query)
	if !ok {
		return nil
	}
	x, err := s.planQuery(r, &st.Req, t)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil
	}
	// A fetch is never shed: the stream keeps the deadline it opened with.
	var deadline time.Time
	if st.Deadline != 0 {
		deadline = time.UnixMilli(st.Deadline)
	}
	cur, err := x.sess.Stream(cxrpq.StreamOptions{
		Semantics: x.do.Semantics, K: x.do.K, Ranked: true, Weight: x.weight, Deadline: deadline,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil
	}
	for skip := tok.rows; skip > 0; {
		n := cur.FetchRows(int(min(skip, defaultPage))).N
		if n == 0 {
			break
		}
		skip -= int64(n)
	}
	rec := &cursorRec{state: tok.state, cur: cur, entry: t.e, names: t.names, rev: st.Rev,
		fragment: t.sess.Fragment(), limit: cmp.Or(max(st.Req.Limit, 0), defaultPage)}
	rec.mu.Lock()
	closeAll(s.cursors.putAt(tok.id, rec))
	return rec
}

// resolveSemantics applies the HTTP surface's rule for the semantics/k pair:
// a k is given exactly when semantics=bounded, where any k ≥ 0 is legal
// (k = 0 restricts images to ε). An absent semantics is "auto".
func resolveSemantics(semantics string, k *int) (string, int, error) {
	switch semantics {
	case "", "auto", "log":
		if k != nil {
			return "", 0, fmt.Errorf("k requires semantics=bounded")
		}
		if semantics == "" {
			semantics = "auto"
		}
		return semantics, 0, nil
	case "bounded":
		if k == nil || *k < 0 {
			return "", 0, fmt.Errorf("semantics=bounded requires k >= 0")
		}
		return semantics, *k, nil
	}
	return "", 0, fmt.Errorf("unknown semantics %q", semantics)
}

type planRequest struct {
	DB    string `json:"db,omitempty"`    // named database, or
	Graph string `json:"graph,omitempty"` // inline graph
	Query string `json:"query"`           // textual CXRPQ
}

type planResponse struct {
	*cxrpq.PlanReport
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

// handlePlan is the join-order debug endpoint: it resolves the (database,
// query) pair exactly like /query but returns the order the session's joins
// run in — per step, how the join visits the atom and which endpoints the
// rest of the query reads (see cxrpq.PlanReport) — with the database's size,
// instead of evaluating anything.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return
	}
	t, ok := s.resolve(w, req.DB, req.Graph, req.Query)
	if !ok {
		return
	}
	rep, err := t.sess.PlanReport()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, planResponse{PlanReport: rep, Nodes: t.db.NumNodes(), Edges: t.db.NumEdges()})
}

type updateRequest struct {
	DB     string `json:"db"`
	Edges  string `json:"edges,omitempty"`  // edges to add, one "from label to" per line; nodes created as needed
	Remove string `json:"remove,omitempty"` // edges to remove (must exist), same format
}

type updateResponse struct {
	DB         string   `json:"db"`
	Revision   uint64   `json:"revision"`
	Nodes      int      `json:"nodes"`
	Edges      int      `json:"edges"`
	Added      int      `json:"added"`     // net added edges of the batch
	Removed    int      `json:"removed"`   // net removed edges of the batch
	NewNodes   int      `json:"new_nodes"` // nodes interned by the batch
	NewLabels  []string `json:"new_labels,omitempty"`
	InsertOnly bool     `json:"insert_only"`

	// CheckpointError reports an automatic checkpoint that failed after the
	// batch was made durable: the batch is acknowledged all the same.
	CheckpointError string `json:"checkpoint_error,omitempty"`
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !decode(w, r, &req) {
		return
	}
	e, ok := s.entry(req.DB)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown db %q", req.DB))
		return
	}
	if e.follower != nil {
		writeErr(w, http.StatusForbidden, fmt.Errorf("db %q is a read-only follower replica", req.DB))
		return
	}
	var delta graph.Delta
	var err error
	if delta.Add, err = graph.ParseDeltaEdges(req.Edges); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if delta.Del, err = graph.ParseDeltaEdges(req.Remove); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Apply to the writer-private live DB (readers keep evaluating on the
	// published snapshot throughout), make the batch durable, then publish:
	// snapshot + carry the atom store through the incremental-update path.
	// The maintenance cost is paid here, at write time, never by a reader.
	// The ack is written only after the WAL fsync — the durability contract —
	// and a failed append refuses to publish (or acknowledge) state the log
	// does not hold. A checkpoint that fails after a durable append is no
	// such failure: the batch is published and acknowledged with it.
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.walErr != nil {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("db %q refuses writes after a WAL failure: %v", e.name, e.walErr))
		return
	}
	live := e.live.Load()
	fromRev := live.Revision()
	info, err := live.ApplyDelta(delta)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var ckErr *graph.CheckpointError
	if e.store != nil {
		if err := e.store.Append(delta, fromRev, live.Revision()); err != nil && !errors.As(err, &ckErr) {
			// The live DB is ahead of its log now; wedge the entry so the
			// divergence cannot compound, and keep serving the last durable
			// published state.
			e.walErr = err
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("wal append: %v", err))
			return
		}
	}
	st := e.publish()
	resp := updateResponse{
		DB: e.name, Revision: st.rev, Nodes: st.db.NumNodes(), Edges: st.db.NumEdges(),
		Added: len(info.Added), Removed: len(info.Removed), NewNodes: info.NewNodes,
		InsertOnly: info.InsertOnly(),
	}
	if ckErr != nil {
		log.Printf("db %s: revision %d is durable in the WAL, its checkpoint failed: %v", e.name, st.rev, ckErr)
		resp.CheckpointError = ckErr.Error()
	}
	for _, l := range info.NewLabels {
		resp.NewLabels = append(resp.NewLabels, string(l))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(s.start).Microseconds()) / 1000,
	})
}

type dbStats struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Revision uint64 `json:"revision"`
	Sessions int    `json:"sessions"`

	// Delta-maintenance counters: which path mutations took through the
	// database's derived state and its atom store; Atoms is the store of the
	// published view — what it holds and its lineage's counters. It holds an
	// atom's pairs as row tables alone ("rows": a complete one is all of
	// them, read in place), so there is no "relations" kind.
	Maint     graph.MaintStats `json:"maint"`
	SessMaint sessMaintStats   `json:"sessions_maint"`
	Atoms     ecrpq.AtomStats  `json:"atoms"`

	// Durability counters (-data-dir): WAL volume, fsync cadence,
	// checkpoints and recovery replay; Follower mirrors the tail loop of a
	// read-only replica.
	Store    *graph.StoreStats `json:"store,omitempty"`
	Follower *followerStats    `json:"follower,omitempty"`

	// Streaming telemetry: /query volume, rows delivered (first pages plus
	// cursor fetches), mean time-to-first-row, and how many evaluations
	// were shed by the soft-saturation limiter or cut by a budget.
	Queries      int64   `json:"queries"`
	RowsStreamed int64   `json:"rows_streamed"`
	TTFRAvgMS    float64 `json:"ttfr_avg_ms"`
	Shed         int64   `json:"shed"`
	Truncated    int64   `json:"truncated"`
}

// sessMaintStats is how the database's atom store took its revision moves —
// one per publish, however many sessions are pooled: carrying moves, net-empty
// windows kept, fresh starts, and how many entries then settled retained or
// frontier-extended rather than recomputed from scratch.
type sessMaintStats struct {
	DeltaApplies uint64 `json:"delta_applies"`
	Retains      uint64 `json:"retains"`
	FullRebuilds uint64 `json:"full_rebuilds"`
	RelRetained  uint64 `json:"rel_retained"`
	RelExtended  uint64 `json:"rel_extended"`
}

// followerStats reports a replica's tail-loop progress: WAL records applied
// (recovery plus tailing) and checkpoint-forced reloads.
type followerStats struct {
	Replayed uint64 `json:"replayed_records"`
	Reloads  uint64 `json:"reloads"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.dbs))
	for name := range s.dbs {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	var dbs []dbStats
	var kernel engine.KernelStats // summed over the databases
	for _, name := range names {
		e, ok := s.entry(name)
		if !ok {
			continue
		}
		pub := e.state.Load()
		// Sizes come from the published view; the maintenance counters live
		// on the writer's DB (atomics — safe to read without its lock).
		st := dbStats{Name: e.name, Nodes: pub.db.NumNodes(), Edges: pub.db.NumEdges(), Revision: pub.rev,
			Maint: e.live.Load().MaintStats()}
		if e.store != nil {
			ss := e.store.Stats()
			st.Store = &ss
		}
		if e.follower != nil {
			st.Follower = &followerStats{Replayed: e.follower.Replayed(), Reloads: e.follower.Reloads()}
		}
		e.planMu.Lock()
		st.Sessions = len(e.plans)
		e.planMu.Unlock()
		st.Atoms = ecrpq.Atoms(pub.db).Stats()
		kernel.Batches += st.Atoms.Kernel.Batches
		kernel.Levels += st.Atoms.Kernel.Levels
		kernel.Sources += st.Atoms.Kernel.Sources
		kernel.Edges += st.Atoms.Kernel.Edges
		st.SessMaint = sessMaintStats{DeltaApplies: st.Atoms.DeltaPasses, Retains: st.Atoms.Retains,
			FullRebuilds: st.Atoms.FullRebuilds, RelRetained: st.Atoms.Retained, RelExtended: st.Atoms.Extended}
		e.qmu.Lock()
		st.Queries = e.qs.Queries
		st.RowsStreamed = e.qs.RowsStreamed
		if e.qs.Queries > 0 {
			st.TTFRAvgMS = float64(e.qs.TTFRTotalNS) / float64(e.qs.Queries) / 1e6
		}
		st.Shed = e.qs.Shed
		st.Truncated = e.qs.Truncated
		e.qmu.Unlock()
		dbs = append(dbs, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dbs":      dbs,
		"inflight": len(s.inflight),
		"cursors":  s.cursors.open(),
		// The reachability-kernel work of every database's atom store
		// ("atoms".kernel), summed.
		"engine": kernel,
	})
}

// parseDBFlag splits a -db flag value "name=path".
func parseDBFlag(v string) (name, path string, err error) {
	i := strings.IndexByte(v, '=')
	if i <= 0 || i == len(v)-1 {
		return "", "", fmt.Errorf("bad -db value %q, want name=path", v)
	}
	return v[:i], v[i+1:], nil
}

package main

// Every call the benchmark makes into internal/* is in this file: the
// in-process reference evaluation the answers are checked against, and the
// staged replay of the traced run, with one span around each public call at
// a layer boundary. Only base entry points are used (RelationFor, ReachBatch,
// JoinRelations, Eval), not their Ex/W/Budget variants, so that folding the
// variants into options structs does not touch the benchmark.

import (
	"fmt"
	"os"
	"path/filepath"

	"cxrpq/internal/automata"
	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

const rootSpan = "cxrpq.eval"

// dbCache holds the in-process copies of the generated graphs, parsed on
// first use from the same text the server loaded.
type dbCache map[string]*graph.DB

func inProcessDB(in *inputs, cache dbCache, name string) (*graph.DB, error) {
	if db, ok := cache[name]; ok {
		return db, nil
	}
	db, err := graph.Parse(in.texts[name])
	if err != nil {
		return nil, err
	}
	cache[name] = db.Snapshot().DB()
	return cache[name], nil
}

// addTuple hashes one answer row by its node names, as the server prints it.
func (d *digest) addTuple(db *graph.DB, t pattern.Tuple) {
	h := newRowHasher()
	for _, v := range t {
		h.field([]byte(db.Name(v)))
	}
	d.addRow(h.sum())
}

func tupleDigest(db *graph.DB, ts *pattern.TupleSet) digest {
	var d digest
	if ts == nil {
		return d
	}
	for _, t := range ts.All() {
		d.addTuple(db, t)
	}
	return d
}

func boolDigest(ok bool) digest {
	if ok {
		return digest{Count: 1}
	}
	return digest{}
}

func request(db *graph.DB, o *op) (cxrpq.Request, error) {
	req := cxrpq.Request{Op: o.Mode, Semantics: o.Semantics, K: o.K}
	for _, name := range o.Tuple {
		id, ok := db.Lookup(name)
		if !ok {
			return req, fmt.Errorf("unknown node %q", name)
		}
		req.Tuple = append(req.Tuple, id)
	}
	return req, nil
}

func responseDigest(db *graph.DB, o *op, resp cxrpq.Response) (digest, error) {
	if resp.Err != nil {
		return digest{}, resp.Err
	}
	if o.Mode == "eval" {
		return tupleDigest(db, resp.Tuples), nil
	}
	return boolDigest(resp.OK), nil
}

// evalDigest is the reference answer of one op: a fresh prepare, bind and
// evaluation, whatever kind of paging the op uses against the server.
func evalDigest(db *graph.DB, o *op) (digest, error) {
	plan, err := cxrpq.PrepareSrc(o.Query)
	if err != nil {
		return digest{}, err
	}
	req, err := request(db, o)
	if err != nil {
		return digest{}, err
	}
	return responseDigest(db, o, plan.Bind(db).Do(req))
}

// oracleDigest evaluates a query on a tiny inline graph with the brute-force
// oracle; exact when no matching word is longer than maxLen.
func oracleDigest(graphText, query string, maxLen int) (digest, error) {
	db, err := graph.Parse(graphText)
	if err != nil {
		return digest{}, err
	}
	q, err := cxrpq.Parse(query)
	if err != nil {
		return digest{}, err
	}
	ts, err := oracle.EvalCXRPQ(q, db, maxLen)
	if err != nil {
		return digest{}, err
	}
	return tupleDigest(db, ts), nil
}

// tracedLoad parses a graph text and builds its index under spans.
func tracedLoad(t *tracer, text string) (*graph.DB, error) {
	var db *graph.DB
	var err error
	t.do("graph.load", -1, -1, func() { db, err = graph.Parse(text) })
	if err != nil {
		return nil, err
	}
	t.do("graph.index", -1, -1, func() { db.Index() })
	return db, nil
}

// tracedWhole runs one op the way the server does after its pool lookup and
// records it as the request's root span: Session.Do for a materialised
// request, Session.Stream plus Cursor.Fetch for the paged kinds (with the
// first row and each page as child spans). sess is the session to use: a
// fresh bind, or a pooled session carried through Fork. Hashing the answer
// is the benchmark's work, not a layer's, and happens after the span ends.
func tracedWhole(t *tracer, reqID int, sess *cxrpq.Session, db *graph.DB, o *op, st *streamSpec) (root int, d digest, err error) {
	req, err := request(db, o)
	if err != nil {
		return -1, d, err
	}
	if o.Kind == "query" {
		var resp cxrpq.Response
		root = t.do(rootSpan, reqID, -1, func() { resp = sess.Do(req) })
		d, err = responseDigest(db, o, resp)
		return root, d, err
	}
	first, page, pages := st.FirstLimit, st.PageRows, -1
	ranked := o.Kind == "ranked"
	if ranked {
		first, page, pages = st.RankedRows, st.RankedRows, st.RankedPages
	}
	if o.Kind == "first" {
		pages = 0
	}
	var cur *cxrpq.Cursor
	var all []cxrpq.Row
	root = t.do(rootSpan, reqID, -1, func() {
		parent := len(t.spans) - 1
		t.do("cxrpq.ttfr", reqID, parent, func() {
			if cur, err = sess.Stream(cxrpq.StreamOptions{Semantics: o.Semantics, K: o.K, Ranked: ranked}); err == nil {
				all = cur.Fetch(1)
			}
		})
		if err != nil || len(all) < 1 {
			return
		}
		if first > 1 {
			rows := cur.Fetch(first - 1)
			all = append(all, rows...)
			if len(rows) < first-1 {
				return
			}
		}
		for p := 0; pages < 0 || p < pages; p++ {
			var rows []cxrpq.Row
			t.do("cxrpq.page_fetch", reqID, parent, func() { rows = cur.Fetch(page) })
			all = append(all, rows...)
			if len(rows) < page {
				return
			}
		}
	})
	if err != nil {
		return root, d, err
	}
	err = cur.Err()
	cur.Close()
	for _, r := range all {
		d.addTuple(db, r.Tuple)
	}
	return root, d, err
}

// tracedStaged decomposes one op into the public calls of each layer, each
// under its own span hanging off the request's root span. The staged path is
// a different route to the same answer (materialised relations plus a join
// where the integrated evaluation may probe lazily), so its digest is
// returned for the caller to compare.
func tracedStaged(t *tracer, reqID, root int, db *graph.DB, o *op) (d digest, err error) {
	var q *cxrpq.Query
	t.do("xregex.parse", reqID, root, func() { q, err = cxrpq.Parse(o.Query) })
	if err != nil {
		return d, err
	}
	var plan *cxrpq.Plan
	t.do("cxrpq.prepare", reqID, root, func() { plan, err = cxrpq.Prepare(q) })
	if err != nil {
		return d, err
	}
	var sess *cxrpq.Session
	t.do("cxrpq.bind", reqID, root, func() { sess = plan.Bind(db) })
	t.do("planner.plan", reqID, root, func() { _, err = sess.PlanReport() })
	if err != nil {
		return d, err
	}
	req, err := request(db, o)
	if err != nil {
		return d, err
	}
	pre := map[string]int{}
	if o.Mode == "check" {
		for i, z := range q.Pattern.Out {
			pre[z] = req.Tuple[i]
		}
	}
	boolOnly := o.Mode != "eval"
	switch {
	case o.Semantics == "bounded" || o.Semantics == "log":
		t.do("cxrpq.bounded_eval", reqID, root, func() { d, err = responseDigest(db, o, sess.Do(req)) })
	case q.IsCRPQ():
		sigma := xregex.MergeAlphabets(db.Alphabet(), q.CXRE().Alphabet())
		rels := make([]*ecrpq.EdgeRel, len(q.Pattern.Edges))
		srcs := make([]int, db.NumNodes())
		for i := range srcs {
			srcs[i] = i
		}
		for i, e := range q.Pattern.Edges {
			t.do("ecrpq.atomrel", reqID, root, func() { rels[i], err = ecrpq.RelationFor(db, e.Label, sigma) })
			if err != nil {
				return d, err
			}
			// The kernel share of the relation just built, re-run on a
			// private automaton: reported beside ecrpq.atomrel, not added.
			m, cerr := xregex.Compile(e.Label, sigma)
			if cerr != nil {
				return d, cerr
			}
			cache := automata.NewSubsetCache(m)
			t.do("engine.reachbatch", reqID, root, func() {
				engine.ReachBatch(db.Index(), db.Partition(engine.Shards()), cache, srcs, true)
			})
		}
		t.do("ecrpq.join", reqID, root, func() {
			spec := ecrpq.PlanJoin(q.Pattern, rels, pre)
			ts := ecrpq.JoinRelations(q.Pattern, rels, spec, pre, boolOnly)
			if boolOnly {
				d = boolDigest(ts.Len() > 0)
			} else {
				d = tupleDigest(db, ts)
			}
		})
	case q.IsSimple():
		t.do("ecrpq.equality", reqID, root, func() {
			var eq *ecrpq.Query
			if eq, err = cxrpq.SimpleToECRPQer(q, nil); err != nil {
				return
			}
			d, err = ecrpqDigest(db, o, req.Tuple, eq)
		})
	case q.IsVStarFree():
		t.do("ecrpq.vsf_union", reqID, root, func() {
			var u *ecrpq.Union
			if u, err = cxrpq.VsfToUnionECRPQer(q); err != nil {
				return
			}
			switch o.Mode {
			case "eval":
				var ts *pattern.TupleSet
				ts, err = ecrpq.EvalUnion(u, db)
				d = tupleDigest(db, ts)
			case "bool":
				var ok bool
				ok, err = ecrpq.EvalUnionBool(u, db)
				d = boolDigest(ok)
			default:
				for _, m := range u.Members {
					var ok bool
					if ok, err = ecrpq.Check(m, db, req.Tuple); err != nil || ok {
						d = boolDigest(ok)
						return
					}
				}
			}
		})
	default:
		err = fmt.Errorf("no staged path for fragment %s under semantics %q", q.Fragment(), o.Semantics)
	}
	return d, err
}

func ecrpqDigest(db *graph.DB, o *op, tuple pattern.Tuple, eq *ecrpq.Query) (digest, error) {
	switch o.Mode {
	case "eval":
		ts, err := ecrpq.Eval(eq, db)
		return tupleDigest(db, ts), err
	case "bool":
		ok, err := ecrpq.EvalBool(eq, db)
		return boolDigest(ok), err
	default:
		ok, err := ecrpq.Check(eq, db, tuple)
		return boolDigest(ok), err
	}
}

func freshSession(db *graph.DB, query string) (*cxrpq.Session, error) {
	plan, err := cxrpq.PrepareSrc(query)
	if err != nil {
		return nil, err
	}
	return plan.Bind(db), nil
}

// writePath replays the server's /update sequence in process: a durable
// store seeded like cxrpq-serve seeds it, a private live DB, and the pooled
// sessions carried from snapshot to snapshot by Fork.
type writePath struct {
	t     *tracer
	dir   string
	opts  graph.StoreOptions
	store *graph.Store
	view  *graph.DB
	pool  map[string]*cxrpq.Session
}

func openWritePath(t *tracer, dir, graphText string, syncEvery int, checkpointBytes int64, pooled []string) (*writePath, error) {
	w := &writePath{t: t, dir: filepath.Join(dir, "g"), pool: map[string]*cxrpq.Session{},
		opts: graph.StoreOptions{SyncEvery: syncEvery, CheckpointBytes: checkpointBytes}}
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, err
	}
	var err error
	if w.store, err = graph.OpenStore(w.dir, w.opts); err != nil {
		return nil, err
	}
	t.do("graph.load", -1, -1, func() {
		var adds []graph.DeltaEdge
		if adds, err = graph.ParseDeltaEdges(graphText); err == nil {
			_, err = w.store.DB().ApplyDelta(graph.Delta{Add: adds})
		}
	})
	if err != nil {
		return nil, err
	}
	t.do("store.checkpoint", -1, -1, func() { err = w.store.Checkpoint() })
	if err != nil {
		return nil, err
	}
	t.do("graph.index", -1, -1, func() { w.store.DB().Index() })
	w.view = w.store.DB().Snapshot().DB()
	for _, text := range pooled {
		if w.pool[text], err = freshSession(w.view, text); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// apply runs one update batch through the four steps the server's ack waits
// for, as spans of request reqID.
func (w *writePath) apply(reqID int, b *updateBatch) error {
	var delta graph.Delta
	var err error
	if delta.Add, err = graph.ParseDeltaEdges(b.Add); err != nil {
		return err
	}
	if delta.Del, err = graph.ParseDeltaEdges(b.Del); err != nil {
		return err
	}
	live := w.store.DB()
	from := live.Revision()
	w.t.do("graph.apply_delta", reqID, -1, func() { _, err = live.ApplyDelta(delta) })
	if err != nil {
		return err
	}
	w.t.do("store.append", reqID, -1, func() { err = w.store.Append(delta, from, live.Revision()) })
	if err != nil {
		return err
	}
	w.t.do("graph.snapshot", reqID, -1, func() { w.view = live.Snapshot().DB() })
	for text, s := range w.pool {
		w.t.do("cxrpq.fork", reqID, -1, func() { w.pool[text] = s.Fork(w.view) })
	}
	return nil
}

// recover closes the store and reopens it from disk, the restart path, and
// returns the revision before the close and after the reopen.
func (w *writePath) recover() (before, after uint64, err error) {
	before = w.store.DB().Revision()
	if err = w.store.Close(); err != nil {
		return
	}
	w.t.do("store.recover", -1, -1, func() { w.store, err = graph.OpenStore(w.dir, w.opts) })
	if err != nil {
		return
	}
	after = w.store.DB().Revision()
	return before, after, w.store.Close()
}

// applyAll returns the database a fresh load of base plus every batch gives,
// the reference for the final-revision answers of update_read.
func applyAll(graphText string, batches []updateBatch) (*graph.DB, error) {
	db := graph.New()
	adds, err := graph.ParseDeltaEdges(graphText)
	if err != nil {
		return nil, err
	}
	if _, err := db.ApplyDelta(graph.Delta{Add: adds}); err != nil {
		return nil, err
	}
	for i := range batches {
		var delta graph.Delta
		if delta.Add, err = graph.ParseDeltaEdges(batches[i].Add); err != nil {
			return nil, err
		}
		if delta.Del, err = graph.ParseDeltaEdges(batches[i].Del); err != nil {
			return nil, err
		}
		if _, err := db.ApplyDelta(delta); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return db, nil
}

// replayer is the in-process side of the traced run for the read-only
// workloads: the graphs loaded like the server loads them, and the pooled
// sessions of the literal templates (a fresh text is bound fresh, as the
// server's pool would on a miss).
type replayer struct {
	t      *tracer
	st     *streamSpec
	views  map[string]*graph.DB
	pooled map[string]*cxrpq.Session
}

func newReplayer(t *tracer, in *inputs) (*replayer, error) {
	r := &replayer{t: t, st: in.spec.Stream, views: map[string]*graph.DB{}, pooled: map[string]*cxrpq.Session{}}
	for name, text := range in.texts {
		db, err := tracedLoad(t, text)
		if err != nil {
			return nil, err
		}
		t.do("graph.snapshot", -1, -1, func() { r.views[name] = db.Snapshot().DB() })
	}
	return r, nil
}

// wholeAndStaged runs one op whole on sess and then staged on a fresh bind
// of the same view. It returns both digests and the duration of the whole
// evaluation.
func wholeAndStaged(t *tracer, reqID int, sess *cxrpq.Session, db *graph.DB, o *op, st *streamSpec) (whole, staged digest, wholeNS int64, err error) {
	root, whole, err := tracedWhole(t, reqID, sess, db, o, st)
	if err != nil {
		return
	}
	wholeNS = t.spans[root].ns()
	staged, err = tracedStaged(t, reqID, root, db, o)
	return
}

// replay runs one op of a read-only workload: on the pooled session of a
// literal text, on a fresh bind otherwise.
func (r *replayer) replay(reqID int, o *op, literal bool) (whole, staged digest, wholeNS int64, err error) {
	db := r.views[o.DB]
	sess := r.pooled[o.Query]
	if sess == nil {
		if sess, err = freshSession(db, o.Query); err != nil {
			return
		}
		if literal {
			r.pooled[o.Query] = sess
		}
	}
	return wholeAndStaged(r.t, reqID, sess, db, o, r.st)
}

// read replays one pooled read of update_read at the current revision: whole
// on the session Fork carried here, staged on a fresh bind of the same view.
func (w *writePath) read(reqID int, o *op, st *streamSpec) (whole, staged digest, wholeNS int64, err error) {
	sess := w.pool[o.Query]
	if sess == nil {
		return whole, staged, 0, fmt.Errorf("text of template %s is not pooled", o.Template)
	}
	return wholeAndStaged(w.t, reqID, sess, w.view, o, st)
}

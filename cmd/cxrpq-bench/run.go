package main

// One run of one workload: set-up (timed, repeated), measured phase, answer
// checks, and for update_read the kill-and-recover step.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type runConfig struct {
	workload  string
	seed      int64
	seconds   float64 // nominal length of the run; a traced run gives half of it to the replay
	trace     bool
	setups    int  // how many times set-up is performed and timed
	verifyAll bool // re-evaluate every executed op in process (smoke, golden)

	outDir   string
	serveBin string
	host     *hostMeter // set by runWorkload for the length of the run
}

type runResult struct {
	attempted int
	failed    int
	failures  []string
	e2e       []metric
	layers    []metric
}

// liveSeconds is the nominal length of the measured phase against the live
// server.
func (c *runConfig) liveSeconds() float64 {
	if c.trace {
		return c.seconds / 2 // the other half is the in-process replay
	}
	return c.seconds
}

// metrics is what a run of this kind reports: the per-layer metrics of a
// traced run, the end-to-end ones otherwise.
func (r *runResult) metrics(trace bool) []metric {
	if trace {
		return r.layers
	}
	return r.e2e
}

func (r *runResult) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < 12 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// inputs is everything generated from the seed.
type inputs struct {
	spec     *workloadSpec
	graphs   map[string]*genGraph
	texts    map[string]string // db -> graph text
	literals []op              // one materialised eval per literal template
	warmup   []op
	ops      []op
	updates  []updateBatch
}

func isLiteral(t *templateSpec) bool { return t.Shape == "" && !strings.Contains(t.Text, "%") }

// opCount is the length of the measured op list of a run whose live phase is
// nominally seconds long.
func opCount(spec *workloadSpec, seconds float64) int {
	return max(1, int(math.Round(spec.OpsPerS*seconds)))
}

// generateInputs draws everything a run of nOps measured ops needs. The op
// list of a seed is a prefix of every longer list of that seed.
func generateInputs(spec *workloadSpec, seed int64, nOps int) (*inputs, error) {
	in := &inputs{spec: spec, graphs: map[string]*genGraph{}, texts: map[string]string{}}
	for i := range spec.Graphs {
		gs := &spec.Graphs[i]
		gseed := seed + int64(i)*7919
		if gs.Pin != 0 {
			gseed = gs.Pin
		}
		g, err := generateGraph(gs, gseed)
		if err != nil {
			return nil, err
		}
		in.graphs[gs.DB] = g
		in.texts[gs.DB] = g.text()
	}
	for i := range spec.Templates {
		if t := &spec.Templates[i]; isLiteral(t) {
			o := op{Kind: "query", Template: t.Name, DB: t.DB, Query: t.Text, Mode: "eval", Semantics: t.Semantics}
			if len(t.K) > 0 {
				o.K = t.K[0]
			}
			in.literals = append(in.literals, o)
		}
	}
	og := newOpGenerator(spec, in.graphs, seed)
	var err error
	if in.warmup, err = og.take(spec.WarmupOps); err != nil {
		return nil, err
	}
	if in.ops, err = og.take(nOps); err != nil {
		return nil, err
	}
	if spec.Update != nil {
		// At least one read follows every update, so there are never more
		// updates than reads.
		in.updates = generateUpdates(spec.Update, in.graphs[spec.Graphs[0].DB], seed, nOps)
	}
	return in, nil
}

// oracleCases are star-free queries over a tiny inline graph: no matching
// word is longer than oracleMaxLen, so the brute-force oracle is exact.
var oracleCases = []string{
	"ans(x, y)\nx y : $v{a|b}\ny z : $v",
	"ans(x, z)\nx y : ab|b\ny z : a?b",
	"ans(x)\nx y : $v{a|b}$v",
	"ans(x, y)\nx y : a\nx z : b",
}

const oracleMaxLen = 3

func oracleGraph(seed int64) string {
	g, _ := generateGraph(&graphSpec{DB: "inline", Nodes: 10,
		Types: []typeSpec{{Name: "n", Share: 1}},
		Preds: []predSpec{
			{Label: "a", From: "n", To: "n", Out: distSpec{Kind: "uniform", Min: 1, Max: 2}},
			{Label: "b", From: "n", To: "n", Out: distSpec{Kind: "uniform", Min: 0, Max: 2}},
		}}, seed)
	return g.text()
}

// environment is one set-up: inputs on disk and a healthy, warmed server.
type environment struct {
	in      *inputs
	srv     *server
	args    []string
	dataDir string
	setupS  float64 // how long the set-up took, in host time (host.go)
}

// setUp generates the inputs, writes the graphs, starts the server, checks
// that it loaded what was generated, and warms it. All of it is setup_s.
func setUp(cfg *runConfig, spec *workloadSpec, res *runResult) (*environment, error) {
	start, mark := time.Now(), cfg.host.mark()
	in, err := generateInputs(spec, cfg.seed, opCount(spec, cfg.liveSeconds()))
	if err != nil {
		return nil, err
	}
	env := &environment{in: in}
	dir := filepath.Join(cfg.outDir, "run-"+spec.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, gs := range spec.Graphs {
		path := filepath.Join(dir, gs.DB+".graph")
		if err := os.WriteFile(path, []byte(in.texts[gs.DB]), 0o644); err != nil {
			return nil, err
		}
		env.args = append(env.args, "-db", gs.DB+"="+path)
	}
	if u := spec.Update; u != nil {
		env.dataDir = filepath.Join(dir, "data")
		env.args = append(env.args, "-data-dir", env.dataDir,
			"-wal-sync-every", strconv.Itoa(u.WALSyncEvery),
			"-checkpoint-bytes", strconv.FormatInt(u.CheckpointBytes, 10))
	}
	if env.srv, err = startServer(cfg.serveBin, env.args, filepath.Join(dir, "server.log")); err != nil {
		return nil, err
	}
	st, err := env.srv.stats()
	if err != nil {
		env.srv.kill()
		return nil, err
	}
	for _, gs := range spec.Graphs {
		g, d := in.graphs[gs.DB], st.db(gs.DB)
		if d == nil || d.Nodes != g.n || d.Edges != len(g.edges) {
			env.srv.kill()
			return nil, fmt.Errorf("db %s: generated %d nodes and %d edges, the server reports %+v", gs.DB, g.n, len(g.edges), d)
		}
	}
	warm(env, cfg, res)
	env.setupS = time.Since(start).Seconds() * cfg.host.between(mark, cfg.host.mark()).wall()
	return env, nil
}

// warm runs the unmeasured requests: the oracle subset on an inline graph,
// every literal template once (so pooled sessions and result caches are
// filled, and checked against the in-process answer), then the warm-up list.
func warm(env *environment, cfg *runConfig, res *runResult) {
	c := newClient(env.srv.base)
	defer c.close()
	gtext := oracleGraph(cfg.seed)
	for _, q := range oracleCases {
		var rep reply
		res.attempted++
		if !c.query(classRead, &queryBody{Graph: gtext, Query: q}, time.Now(), &rep) {
			res.failf("oracle case %q: request failed", q)
			continue
		}
		want, err := oracleDigest(gtext, q, oracleMaxLen)
		if err != nil || want != rep.Rows {
			res.failf("oracle case %q: server %v, oracle %v (%v)", q, rep.Rows, want, err)
		}
	}
	in := env.in
	lit := make([]opResult, len(in.literals))
	runClosed(c, in.literals, lit, in.spec.Stream, time.Time{})
	gold, err := loadGolden(benchDir, in.spec.Name, cfg.seed)
	if err != nil {
		res.failf("golden: %v", err)
	}
	dbs := dbCache{}
	for i := range in.literals {
		res.attempted++
		checkOp(res, in, dbs, gold, fmt.Sprintf("lit:%s", in.literals[i].Template), &in.literals[i], lit[i], true)
	}
	results := make([]opResult, len(in.warmup))
	runClosed(c, in.warmup, results, in.spec.Stream, time.Time{})
	for i, r := range results {
		res.attempted++
		if !r.ok {
			res.failf("warm-up op %d (%s) failed", i, in.warmup[i].Template)
		}
	}
	res.failures = append(res.failures, c.fails...)
	c.samples = nil
}

// checkOp compares one op's result with the golden pin (when the key is
// pinned) and, when verify is set, with a fresh in-process evaluation.
// A stream that was left before its end (first, ranked) is checked by row
// count only: its rows are a prefix whose membership the digest cannot
// test.
func checkOp(res *runResult, in *inputs, dbs dbCache, gold *golden, key string, o *op, got opResult, verify bool) {
	if !got.ok {
		res.failf("%s (%s): a request failed", key, o.Template)
		return
	}
	if got.d.Count > rowCap {
		res.failf("%s (%s): %d rows exceed the cap of %d", key, o.Template, got.d.Count, rowCap)
		return
	}
	agree := func(want digest, src string) {
		switch {
		case want.Count > rowCap:
			res.failf("%s (%s): %d rows exceed the cap of %d", key, o.Template, want.Count, rowCap)
		case got.partial:
			if got.d.Count > want.Count {
				res.failf("%s (%s): %d rows streamed of an answer of %d (%s)", key, o.Template, got.d.Count, want.Count, src)
			}
		case got.d != want:
			res.failf("%s (%s): server %v, %s %v", key, o.Template, got.d, src, want)
		}
	}
	if gold != nil {
		if want, ok := gold.Pins[key]; ok {
			agree(want.digest(), "golden")
		}
	}
	if verify {
		db, err := inProcessDB(in, dbs, o.DB)
		if err != nil {
			res.failf("%s: %v", key, err)
			return
		}
		want, err := evalDigest(db, o)
		if err != nil {
			res.failf("%s (%s): in-process evaluation: %v", key, o.Template, err)
			return
		}
		agree(want, "in-process")
	}
}

// samplesOf returns the latencies of the given classes, failures excluded.
func samplesOf(all []sample, classes ...uint8) []float64 {
	var out []float64
	for _, s := range all {
		if s.failed {
			continue
		}
		for _, c := range classes {
			if s.class == c {
				out = append(out, s.latMS)
			}
		}
	}
	return out
}

func cpuSelfMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measured is what the measured phase leaves for the metrics.
type measured struct {
	samples   []sample
	results   []opResult
	executed  int
	seconds   float64
	before    *statsDoc
	after     *statsDoc
	serverCPU float64
	driverCPU float64
	rssPeakMB float64
	host      hostShare // what the host did during the measured phase

	opRev        []int   // update_read: how many updates had been applied when op i was read
	updates      int     // acknowledged update batches
	updateBytes  float64 // bytes of update text acknowledged
	walPerUpdate float64 // WAL bytes per update, from /stats windows without a checkpoint
	lastRev      uint64
	restartMS    float64
	ckptFileSize float64
}

// runWorkload performs one full run and returns its metrics.
func runWorkload(cfg *runConfig) (*runResult, error) {
	spec, err := loadSpec(benchDir, cfg.workload)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	cfg.host = startHostMeter()
	defer cfg.host.stop()
	// Set-up is repeated and its median reported: one server start is a few
	// hundred milliseconds, too short for a single sample to be steady.
	var env *environment
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if env != nil {
			env.srv.kill()
		}
		throwaway := &runResult{}
		target := throwaway
		if i == cfg.setups-1 {
			target = res
		}
		if env, err = setUp(cfg, spec, target); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, env.setupS)
	}
	defer func() { env.srv.kill() }()

	m, err := measure(cfg, env, res)
	if err != nil {
		return nil, err
	}
	templateTable(os.Stderr, env.in, m)
	verify(cfg, env, res, m)
	if spec.Update != nil {
		if err := finishUpdateRun(cfg, env, res, m); err != nil {
			return nil, err
		}
	}
	res.e2e = endToEnd(spec, m, median(setupS))
	if cfg.trace {
		env.srv.kill() // the replay has the machine to itself
		tr, err := tracedRun(cfg, env, res, m, cfg.liveSeconds())
		if err != nil {
			return nil, err
		}
		res.layers = append(liveLayers(spec, m, res), tr...)
	}
	return res, nil
}

// measure runs the measured phase: the run's op list from its first op to
// its last on one connection, each op sent when the previous one completed.
//
// One connection, whatever the machine: with the server's own threads, a
// second client on two vCPUs measured the guest's scheduler (throughput
// settled at 145 or at 180 requests/s from one run of one seed to the next).
// A fixed list and not a fixed time: the host's speed changes by a factor of
// two within minutes (host.go), and a phase cut off by the wall clock would
// send a different mix on a slow host than on a fast one.
func measure(cfg *runConfig, env *environment, res *runResult) (*measured, error) {
	spec, in := env.in.spec, env.in
	c := newClient(env.srv.base)
	defer c.close()
	m := &measured{results: make([]opResult, len(in.ops))}
	var err error
	if m.before, err = env.srv.stats(); err != nil {
		return nil, err
	}
	cpu0, self0 := env.srv.cpuMS(), cpuSelfMS()
	mark := cfg.host.mark()
	start := time.Now()
	// The list is sized to take liveSeconds; a run that needs three times
	// that is cut short (and says so) rather than left to run into the time
	// limit of whoever started it.
	giveUp := start.Add(time.Duration(3 * cfg.liveSeconds() * float64(time.Second)))
	if spec.Update != nil {
		m.executed = runUpdateRead(c, env, m, giveUp)
	} else {
		m.executed = runClosed(c, in.ops, m.results, spec.Stream, giveUp)
	}
	m.seconds = time.Since(start).Seconds()
	m.serverCPU, m.driverCPU = env.srv.cpuMS()-cpu0, cpuSelfMS()-self0
	m.host = cfg.host.between(mark, cfg.host.mark())
	fmt.Fprintf(os.Stderr, "measured phase: %d of %d ops in %.2f s; host: steal %.4f, slowdown %.4f: wall-clock times are multiplied by %.4f, CPU times by %.4f\n",
		m.executed, len(in.ops), m.seconds, m.host.steal, m.host.slowdown, m.host.wall(), m.host.cpu())
	if m.executed < len(in.ops) {
		fmt.Fprintf(os.Stderr, "the measured phase was cut short after %.0f s, three times its nominal length\n", m.seconds)
	}
	m.rssPeakMB = env.srv.rssPeakMB()
	if m.after, err = env.srv.stats(); err != nil {
		return nil, err
	}
	m.samples = c.samples
	res.failures = append(res.failures, c.fails...)
	for _, s := range m.samples {
		res.attempted++
		if s.failed {
			res.failed++
		}
	}
	return m, nil
}

// runUpdateRead is the measured phase of update_read: one update batch, the
// check of its witness row on a pooled text (timed from the moment the
// update was sent), then the next reads of the list, and again. A revision
// gets ReadsPerUpdate reads, fewer when the next text was already read at
// it: every read is the first of its text at its revision, so it reaches the
// pooled session through Fork's delta maintenance and never the result
// cache. Which update precedes which read depends on the list alone.
func runUpdateRead(c *client, env *environment, m *measured, giveUp time.Time) int {
	u, in := env.in.spec.Update, env.in
	db := in.spec.Graphs[0].DB
	m.opRev = make([]int, len(in.ops))
	readAt := map[string]int{} // text -> updates applied when it was last read
	var lastWAL, lastCkpt, walBytes float64
	walUpdates, sinceStats := 0, 0
	i := 0
	for i < len(in.ops) && time.Now().Before(giveUp) {
		b := &in.updates[m.updates]
		sent := time.Now()
		status, body, err := c.post("/update", map[string]string{"db": db, "edges": b.Add, "remove": b.Del})
		s := sample{class: classUpdate, latMS: float64(time.Since(sent)) / 1e6, bytes: len(body)}
		if err != nil || status != http.StatusOK {
			c.fail("update %d: status %d: %v %.200s", m.updates, status, err, body)
			s.failed = true
			c.samples = append(c.samples, s)
			return i // later batches build on this one
		}
		c.samples = append(c.samples, s)
		m.updates++
		m.updateBytes += float64(len(b.Add) + len(b.Del))
		m.lastRev = scanRevision(body)
		var rep reply
		ok := c.query(classVisible, &queryBody{DB: db, Query: u.WitnessQuery, Mode: "check", Tuple: b.Witness}, sent, &rep)
		if ok && (rep.Bool == 1) == b.Delete {
			c.fail("update %d (delete=%v): witness %v reads %d after the ack", m.updates-1, b.Delete, b.Witness, rep.Bool)
			c.samples[len(c.samples)-1].failed = true
		}
		for n := 0; n < u.ReadsPerUpdate && i < len(in.ops) && readAt[in.ops[i].Query] != m.updates; n++ {
			readAt[in.ops[i].Query] = m.updates
			m.opRev[i] = m.updates
			m.results[i] = c.runOp(&in.ops[i], in.spec.Stream)
			i++
		}
		// WAL volume: /stats resets wal_bytes at a checkpoint, so sum the
		// growth over windows in which no checkpoint fell.
		if sinceStats++; sinceStats == 8 {
			if st, err := env.srv.stats(); err == nil && st.db(db).Store != nil {
				cur := st.db(db).Store
				if lastWAL > 0 && cur.Checkpoints == lastCkpt {
					walBytes += cur.WALBytes - lastWAL
					walUpdates += sinceStats
				}
				lastWAL, lastCkpt = cur.WALBytes, cur.Checkpoints
			}
			sinceStats = 0
			m.walPerUpdate = ratio(walBytes, float64(walUpdates))
		}
	}
	return i
}

// scanRevision reads "revision" out of an /update response.
func scanRevision(b []byte) uint64 {
	var r struct {
		Revision uint64 `json:"revision"`
	}
	_ = json.Unmarshal(b, &r) // a body without a revision reads as 0 and fails the recovery check
	return r.Revision
}

// verify checks the executed ops' answers: every op against the row cap and
// the golden pins of its seed, and every VerifyEvery-th against an in-process
// evaluation.
// Reads of update_read run at a revision the driver cannot know, so there
// only the row cap applies, and the literal templates are compared at the
// base revision (warm-up) and the final revision (finishUpdateRun).
func verify(cfg *runConfig, env *environment, res *runResult, m *measured) {
	in := env.in
	gold, err := loadGolden(benchDir, in.spec.Name, cfg.seed)
	if err != nil {
		res.failf("golden: %v", err)
	}
	dbs := dbCache{}
	for i := 0; i < m.executed; i++ {
		r := m.results[i]
		if !r.ok {
			continue // a failed request is already counted with its sample
		}
		res.attempted++
		check := in.spec.Update == nil && (cfg.verifyAll || i%in.spec.VerifyEvery == 0)
		checkOp(res, in, dbs, gold, fmt.Sprintf("op:%d", i), &in.ops[i], r, check)
	}
}

// finishUpdateRun closes update_read: the pooled texts at the final
// revision must equal a fresh evaluation of base plus every acknowledged
// batch; then the server is killed, restarted on the same data directory,
// and must come back at the last acknowledged revision with the same
// answers.
func finishUpdateRun(cfg *runConfig, env *environment, res *runResult, m *measured) error {
	in := env.in
	dbName := in.spec.Graphs[0].DB
	final, err := applyAll(in.texts[dbName], in.updates[:m.updates])
	if err != nil {
		return err
	}
	view := final.Snapshot().DB()
	want := make([]digest, len(in.literals))
	for i := range in.literals {
		if want[i], err = evalDigest(view, &in.literals[i]); err != nil {
			return err
		}
	}
	compare := func(when string) {
		c := newClient(env.srv.base)
		defer c.close()
		got := make([]opResult, len(in.literals))
		runClosed(c, in.literals, got, in.spec.Stream, time.Time{})
		for i := range got {
			res.attempted++
			if !got[i].ok || got[i].d != want[i] {
				res.failf("%s: %s: server %v, fresh evaluation %v", when, in.literals[i].Template, got[i].d, want[i])
			}
		}
		res.failures = append(res.failures, c.fails...)
	}
	compare("final revision")
	if fi, err := os.Stat(filepath.Join(env.dataDir, dbName, "checkpoint.graph")); err == nil {
		m.ckptFileSize = float64(fi.Size())
	}

	env.srv.kill()
	restart := time.Now()
	if env.srv, err = startServer(cfg.serveBin, env.args, filepath.Join(filepath.Dir(env.dataDir), "server.log")); err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	m.restartMS = float64(time.Since(restart)) / 1e6
	st, err := env.srv.stats()
	if err != nil {
		return err
	}
	res.attempted++
	if d := st.db(dbName); d == nil || d.Revision != m.lastRev {
		res.failf("recovery: last acknowledged revision %d, recovered %+v", m.lastRev, d)
	}
	compare("after kill and restart")
	return nil
}

// endToEnd computes the bounded metrics. Every workload reports all of them.
// Durations and rates are in host time, CPU times are divided by the host's
// slowdown (host.go).
func endToEnd(spec *workloadSpec, m *measured, setupS float64) []metric {
	req := samplesOf(m.samples, classesOf(spec.ReqClasses)...)
	var nonUpdate float64
	for _, s := range m.samples {
		if s.class != classUpdate && !s.failed {
			nonUpdate++
		}
	}
	wall := m.host.wall()
	return []metric{
		{"setup_s", setupS, "s"},
		{"req_p50_ms", median(req) * wall, "ms"},
		{"throughput_rps", nonUpdate / (m.seconds * wall), "1/s"},
		{"server_cpu_ms_per_req", ratio(m.serverCPU, float64(len(m.samples))) * m.host.cpu(), "ms"},
		{"ttfr_p50_ms", median(samplesOf(m.samples, classesOf(spec.TTFRClasses)...)) * wall, "ms"},
	}
}

// liveLayers computes the per-layer metrics that come from outside the
// server: /stats before and after, response fields and /proc.
func liveLayers(spec *workloadSpec, m *measured, res *runResult) []metric {
	var evalMS, overMS []float64
	var rows, bytes, cached, answered float64
	for _, s := range m.samples {
		if s.failed || s.class == classUpdate {
			continue
		}
		evalMS = append(evalMS, s.elapsedMS)
		overMS = append(overMS, s.latMS-s.elapsedMS)
		rows += float64(s.rows)
		bytes += float64(s.bytes)
		answered++
		if s.elapsedMS < 0.05 {
			cached++
		}
	}
	sumDB := func(d *statsDoc, f func(*statsDB) float64) float64 {
		t := 0.0
		for i := range d.DBs {
			t += f(&d.DBs[i])
		}
		return t
	}
	// The session counters are summed over the sessions pooled at the moment
	// of the read, so they fall when the pool overflows and is dropped; a
	// negative difference carries no information and reads as 0.
	delta := func(f func(*statsDoc) float64) float64 { return max(0, f(m.after)-f(m.before)) }
	dbDelta := func(f func(*statsDB) float64) float64 {
		return delta(func(d *statsDoc) float64 { return sumDB(d, f) })
	}
	store := func(f func(*statsDB) float64) func(*statsDB) float64 {
		return func(d *statsDB) float64 {
			if d.Store == nil {
				return 0
			}
			return f(d)
		}
	}
	// A faster server completes more requests in the same measured time, so a
	// raw counter difference would rise with a speed-up. Counters the queries
	// drive are reported per executed request, counters the writer drives
	// (session and relation maintenance, index maintenance, the store) per
	// acknowledged update; the latter are 0 on a workload without a writer.
	reqs, upds := float64(len(m.samples)), float64(m.updates)
	wall := m.host.wall()
	perReq := func(name string, v float64) metric { return metric{name, ratio(v, reqs), "1/req"} }
	perUpd := func(name string, v float64) metric { return metric{name, ratio(v, upds), "1/upd"} }
	checkpoints := dbDelta(store(func(d *statsDB) float64 { return d.Store.Checkpoints }))
	walTotal := m.walPerUpdate * upds
	hits := delta(func(d *statsDoc) float64 { return d.MatchCache.Hits })
	misses := delta(func(d *statsDoc) float64 { return d.MatchCache.Misses })
	edges := delta(func(d *statsDoc) float64 { return d.Engine.Edges })
	req := samplesOf(m.samples, classesOf(spec.ReqClasses)...)
	ack := samplesOf(m.samples, classUpdate)
	slowest := 0.0
	for _, s := range m.samples {
		slowest = max(slowest, s.latMS)
	}
	return []metric{
		{"serve.eval_ms_p50", median(evalMS) * wall, "ms"},
		{"serve.overhead_ms_p50", median(overMS) * wall, "ms"},
		{"serve.bytes_per_row", ratio(bytes, rows), "B"},
		{"serve.resp_kb_per_req", ratio(bytes/1e3, reqs), "kB"},
		{"serve.rss_peak_mb", m.rssPeakMB, "MB"},
		{"serve.result_cache_hit_ratio", ratio(cached, answered), "ratio"},
		{"serve.sessions_end", sumDB(m.after, func(d *statsDB) float64 { return float64(d.Sessions) }), "count"},
		{"serve.cursors_open_end", m.after.Cursors, "count"},
		perReq("serve.shed", dbDelta(func(d *statsDB) float64 { return d.Shed })),
		perReq("serve.truncated", dbDelta(func(d *statsDB) float64 { return d.Truncated })),
		{"serve.restart_ms", m.restartMS, "ms"},
		perUpd("cxrpq.session_full_rebuilds", dbDelta(func(d *statsDB) float64 { return d.SessMaint.FullRebuilds })),
		perUpd("cxrpq.session_delta_applies", dbDelta(func(d *statsDB) float64 { return d.SessMaint.DeltaApplies })),
		perUpd("cxrpq.rel_retained", dbDelta(func(d *statsDB) float64 { return d.SessMaint.RelRetained })),
		perUpd("cxrpq.rel_extended", dbDelta(func(d *statsDB) float64 { return d.SessMaint.RelExtended })),
		{"xregex.match_cache_hit_ratio", ratio(hits, hits+misses), "ratio"},
		perReq("planner.acyclic_plans", delta(func(d *statsDoc) float64 { return d.Planner.AcyclicPlans })),
		perReq("planner.cyclic_fallbacks", delta(func(d *statsDoc) float64 { return d.Planner.CyclicFallback })),
		perReq("planner.semijoin_passes", delta(func(d *statsDoc) float64 { return d.Planner.SemijoinPasses })),
		perReq("planner.atoms_minimized", delta(func(d *statsDoc) float64 { return d.Planner.AtomsMinimized })),
		perReq("engine.batches", delta(func(d *statsDoc) float64 { return d.Engine.Batches })),
		perReq("engine.levels", delta(func(d *statsDoc) float64 { return d.Engine.Levels })),
		perReq("engine.sources", delta(func(d *statsDoc) float64 { return d.Engine.Sources })),
		perReq("engine.edges", edges),
		perReq("engine.exchanged", delta(func(d *statsDoc) float64 { return d.Engine.Exchanged })),
		{"engine.edges_per_row", ratio(edges, rows), "count"},
		perUpd("graph.index_rebuilds", dbDelta(func(d *statsDB) float64 { return d.Maint.IndexRebuilds })),
		perUpd("graph.index_extended", dbDelta(func(d *statsDB) float64 { return d.Maint.IndexExtended })),
		perUpd("graph.partition_rebuilds", dbDelta(func(d *statsDB) float64 { return d.Maint.PartitionRebuilds })),
		perUpd("store.wal_fsyncs", dbDelta(store(func(d *statsDB) float64 { return d.Store.Fsyncs }))),
		{"store.wal_bytes_per_update", m.walPerUpdate, "B"},
		{"store.write_amp", ratio(walTotal+checkpoints*m.ckptFileSize, m.updateBytes), "ratio"},
		perUpd("store.checkpoints", checkpoints),
		{"bench.driver_cpu_share", ratio(m.driverCPU, m.driverCPU+m.serverCPU), "ratio"},
		{"bench.sched_lag_ms_p95", tail(m.host.lateMS, 0.95), "ms"},
		// What the host did during the live half. Every latency above and below
		// is in host time; dividing by (1 - steal) / slowdown gives it back as
		// the wall clock saw it.
		{"bench.host_steal_share", m.host.steal, "ratio"},
		{"bench.host_slowdown", m.host.slowdown, "ratio"},
		{"bench.measured_s", m.seconds, "s"},
		{"bench.requests", reqs, "count"},
		// The calibration target is that no request takes more than 2 % of
		// the measured time; it is reported, not enforced, because a check by
		// time would fail a run on a stalled host.
		{"bench.max_req_share", ratio(slowest/1e3, m.seconds), "ratio"},
		{"fail_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio"},
		// Latencies that are not bounded end-to-end metrics: the tails (they
		// do not repeat within a bound across seeds on this host) and the
		// write path in detail (ttfr_p50_ms bounds it as a whole).
		// On a fixed op list the rows of a seed are fixed, so rows_per_s is
		// throughput_rps times a constant of the seed and needs no bound of
		// its own.
		{"rows_per_s", rows / (m.seconds * wall), "1/s"},
		{"req_p95_ms", tail(req, 0.95) * wall, "ms"},
		{"ttfr_p95_ms", tail(samplesOf(m.samples, classesOf(spec.TTFRClasses)...), 0.95) * wall, "ms"},
		{"update_ack_p50_ms", median(ack) * wall, "ms"},
		{"update_ack_p95_ms", tail(ack, 0.95) * wall, "ms"},
		{"update_visible_p50_ms", median(samplesOf(m.samples, classVisible)) * wall, "ms"},
	}
}

// templateTable prints the sample count of every request class (the n behind
// each percentile) and, per template, how many ops ran and what they cost:
// the place to look when a percentile moves.
func templateTable(w io.Writer, in *inputs, m *measured) {
	type agg struct {
		lat  []float64
		rows int
		max  int
	}
	by := map[string]*agg{}
	var names []string
	for i := 0; i < m.executed; i++ {
		r := m.results[i]
		a := by[in.ops[i].Template]
		if a == nil {
			a = &agg{}
			by[in.ops[i].Template] = a
			names = append(names, in.ops[i].Template)
		}
		a.lat = append(a.lat, r.latMS)
		a.rows += r.d.Count
		a.max = max(a.max, r.d.Count)
	}
	sort.Strings(names)
	counts := map[uint8]int{}
	for _, s := range m.samples {
		counts[s.class]++
	}
	fmt.Fprintf(w, "samples: read %d, bool %d, check %d, first %d, page %d, update %d, visible %d\n", counts[classRead],
		counts[classBool], counts[classCheck], counts[classFirst], counts[classPage], counts[classUpdate], counts[classVisible])
	fmt.Fprintf(w, "%-16s %6s %10s %10s %10s %10s %9s\n", "template", "ops", "p50 ms", "p95 ms", "max ms", "rows/op", "max rows")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-16s %6d %10.2f %10.2f %10.2f %10.0f %9d\n", n, len(a.lat), median(a.lat),
			quantile(a.lat, 0.95), quantile(a.lat, 1), float64(a.rows)/float64(len(a.lat)), a.max)
	}
}

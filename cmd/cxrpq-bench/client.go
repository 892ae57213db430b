package main

// The load side: one HTTP connection, closed-loop op execution and the
// samples it leaves behind; and the open-loop pacer that schedules the host
// meter (host.go).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Request classes. Latency metrics are computed per class: a page of a
// parked cursor and a cold evaluation are different things to wait for.
const (
	classRead    = iota // one materialised /query in eval mode
	classBool           // one /query in bool mode: the answer is the first witness found
	classCheck          // one /query in check mode: is this tuple an answer
	classFirst          // first page of a stream (time to first rows)
	classPage           // continuation page of a parked cursor
	classUpdate         // /update: send to acknowledgement
	classVisible        // the follow-up check of an update's witness row, timed from the moment the update was sent
)

// classIDs are the class names a spec may use in req_classes and ttfr_classes.
var classIDs = map[string]uint8{"read": classRead, "bool": classBool, "check": classCheck, "first": classFirst,
	"page": classPage, "visible": classVisible}

func classesOf(names []string) []uint8 {
	if len(names) == 0 {
		return []uint8{classRead, classBool, classCheck, classFirst, classPage}
	}
	out := make([]uint8, len(names))
	for i, n := range names {
		out[i] = classIDs[n]
	}
	return out
}

type sample struct {
	class     uint8
	failed    bool
	latMS     float64
	elapsedMS float64 // the response's elapsed_ms (server-side evaluation)
	rows      int
	bytes     int
}

type queryBody struct {
	DB        string   `json:"db,omitempty"`
	Graph     string   `json:"graph,omitempty"`
	Query     string   `json:"query,omitempty"`
	Mode      string   `json:"mode,omitempty"`
	Semantics string   `json:"semantics,omitempty"`
	K         *int     `json:"k,omitempty"`
	Tuple     []string `json:"tuple,omitempty"`
	Limit     int      `json:"limit,omitempty"`
	Deadline  int      `json:"deadline_ms,omitempty"`
	Ranked    bool     `json:"ranked,omitempty"`
	Cursor    string   `json:"cursor,omitempty"`
}

// client is one connection's worth of load. It is used by one goroutine.
type client struct {
	hc      *http.Client
	base    string
	buf     bytes.Buffer
	samples []sample
	fails   []string // first few failure descriptions
}

func newClient(base string) *client {
	// One idle connection: the client is closed-loop, so it never needs a
	// second, and total connections then equal the number of clients.
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(format string, args ...any) {
	if len(c.fails) < 5 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

// post sends one JSON request and returns the status and the body, which is
// valid until the next post.
func (c *client) post(path string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// query posts one /query and records its sample. from is where the latency
// clock starts (the send time for closed-loop work, the due time for the
// writer's follow-up). A request fails on a transport error, a non-200
// status, a truncated or shed answer, or a row count that disagrees with
// the rows sent.
func (c *client) query(class uint8, body *queryBody, from time.Time, rep *reply) bool {
	status, b, err := c.post("/query", body)
	lat := time.Since(from)
	s := sample{class: class, latMS: float64(lat) / 1e6, bytes: len(b)}
	switch {
	case err != nil:
		c.fail("query: %v", err)
		s.failed = true
	case status != http.StatusOK:
		c.fail("query: status %d: %.200s", status, b)
		s.failed = true
	default:
		if err := scanReply(b, rep); err != nil {
			err = decodeReply(b, rep)
			if err != nil {
				c.fail("query: undecodable response: %v", err)
				s.failed = true
			}
		}
		if !s.failed {
			s.elapsedMS, s.rows = rep.ElapsedMS, rep.Rows.Count
			if rep.Truncated || rep.Shed || (rep.Bool < 0 && rep.Count != rep.Rows.Count) || !rep.CostsOK {
				c.fail("query: truncated=%v shed=%v count=%d rows=%d costs_ok=%v", rep.Truncated, rep.Shed, rep.Count, rep.Rows.Count, rep.CostsOK)
				s.failed = true
			}
		}
	}
	c.samples = append(c.samples, s)
	return !s.failed
}

// opDeadlineMS is sent with every op as deadline_ms. No op of a calibrated
// workload comes near it; it is there so that a template that explodes on
// some seed ends as a truncated (failed) request and not as a server that
// has eaten the machine's memory.
const opDeadlineMS = 10000

// opResult is what one op returned, for the answer check after the run.
type opResult struct {
	ok        bool // every request of the op succeeded
	partial   bool // the op stopped before the stream ended (first, ranked)
	d         digest
	elapsedMS float64 // summed elapsed_ms of the op's responses
	latMS     float64 // client time of the whole op
}

// runOp executes one op: a single request, or a first page and the
// continuation pages its kind prescribes. Ranked costs must not decrease
// across the pages of one stream.
func (c *client) runOp(o *op, st *streamSpec) (res opResult) {
	start := time.Now()
	defer func() { res.latMS = float64(time.Since(start)) / 1e6 }()
	body := queryBody{DB: o.DB, Query: o.Query, Mode: o.Mode, Semantics: o.Semantics, Tuple: o.Tuple, Deadline: opDeadlineMS}
	if o.Semantics == "bounded" {
		body.K = &o.K
	}
	var rep reply
	if o.Kind == "query" {
		class := uint8(classRead)
		switch o.Mode {
		case "bool":
			class = classBool
		case "check":
			class = classCheck
		}
		res.ok = c.query(class, &body, time.Now(), &rep)
		res.elapsedMS = rep.ElapsedMS
		if rep.Bool >= 0 {
			res.d = digest{Count: rep.Bool}
		} else {
			res.d = rep.Rows
		}
		return res
	}
	page, pages := st.PageRows, -1
	body.Limit = st.FirstLimit
	if o.Kind == "ranked" {
		body.Ranked, body.Limit = true, st.RankedRows
		page, pages = st.RankedRows, st.RankedPages
	}
	if o.Kind == "first" {
		pages = 0
	}
	res.ok = c.query(classFirst, &body, time.Now(), &rep)
	res.d, res.elapsedMS = rep.Rows, rep.ElapsedMS
	lastCost := rep.LastCost
	for p := 0; res.ok && rep.Cursor != "" && (pages < 0 || p < pages); p++ {
		next := queryBody{Cursor: rep.Cursor, Limit: page}
		res.ok = c.query(classPage, &next, time.Now(), &rep)
		res.d.merge(rep.Rows)
		res.elapsedMS += rep.ElapsedMS
		if rep.NumCosts > 0 && rep.FirstCost < lastCost {
			c.fail("ranked costs decrease across pages: %d after %d", rep.FirstCost, lastCost)
			res.ok = false
		}
		lastCost = rep.LastCost
	}
	res.partial = rep.Cursor != ""
	return res
}

// runClosed drives the op list closed-loop on one connection: the next op
// is sent when the previous one completed, until the end of the list or, if
// giveUp is set, until that moment. It returns how many ops ran.
func runClosed(c *client, ops []op, results []opResult, st *streamSpec, giveUp time.Time) int {
	for i := range ops {
		if !giveUp.IsZero() && time.Now().After(giveUp) {
			return i
		}
		results[i] = c.runOp(&ops[i], st)
	}
	return len(ops)
}

// pacer is an open-loop schedule: arrival i is due at start + i*interval
// whatever happened to the arrivals before it. It records how late each
// arrival was released, which is the generator's own lag, not the system's.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int
	lateMS   []float64
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, perSecond float64) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond),
		now: time.Now, sleep: time.Sleep}
}

// next blocks until the next arrival is due and returns its due time. When
// the caller is behind schedule it returns at once and the lateness shows
// in lateMS; latencies are timed from the returned due time either way.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	p.lateMS = append(p.lateMS, max(0, float64(p.now().Sub(due))/1e6))
	return due
}

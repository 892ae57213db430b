package main

// Span recording for the traced run. Spans stay in memory and are written
// once, at exit; nothing here runs during the timed run.

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the id of the request's
// cxrpq.eval span (or -1): the staged calls of a request hang off the whole
// evaluation they decompose, although they run after it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs"`
}

func (s span) ns() int64 { return s.EndNS - s.StartNS }

type tracer struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

// mallocs reads the process-wide allocation count; the traced run is one
// goroutine, so a delta belongs to the call it brackets.
func (t *tracer) mallocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its id; spans may nest. Until end, Mallocs
// holds the allocation count at the start.
func (t *tracer) begin(name string, req, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Mallocs: t.mallocs()})
	t.spans[id].StartNS = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	s.Mallocs = t.mallocs() - s.Mallocs
}

// do times f as a span and returns the span's id.
func (t *tracer) do(name string, req, parent int, f func()) int {
	id := t.begin(name, req, parent)
	f()
	t.end(id)
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNS is a span's duration minus the part of its interval that its
// children cover; overlapping children are counted once and a child
// reaching outside the parent is clipped to it.
func selfNS(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.ns() - covered
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	medianMS float64 // median over requests of the summed span time in that request
	share    float64 // summed span time over the summed cxrpq.eval time
	allocs   float64 // allocations per call
	calls    int
}

// summarize groups spans by name. The denominator of every share is the
// summed duration of the whole evaluations (root spans named rootName).
func summarize(spans []span, rootName string) map[string]layerStat {
	perReq := map[string]map[int]int64{}
	total := map[string]int64{}
	mallocs := map[string]uint64{}
	calls := map[string]int{}
	for _, s := range spans {
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int]int64{}
		}
		perReq[s.Name][s.Req] += s.ns()
		total[s.Name] += s.ns()
		mallocs[s.Name] += s.Mallocs
		calls[s.Name]++
	}
	out := map[string]layerStat{}
	for name, byReq := range perReq {
		vals := make([]float64, 0, len(byReq))
		for _, ns := range byReq {
			vals = append(vals, float64(ns)/1e6)
		}
		st := layerStat{medianMS: median(vals), calls: calls[name],
			allocs: float64(mallocs[name]) / float64(calls[name])}
		if total[rootName] > 0 {
			st.share = float64(total[name]) / float64(total[rootName])
		}
		out[name] = st
	}
	return out
}

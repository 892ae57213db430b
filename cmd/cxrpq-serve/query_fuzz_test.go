package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
)

// fuzzGraph is the one small named database FuzzQueryRequest queries.
const fuzzGraph = "u a v\nu a w\nv b w\nw a u\nv c v"

// FuzzQueryRequest feeds /query bodies of at most 4 KiB through the handler
// against one small named database. Whatever the body, the handler must not
// panic and must answer 200, 400, 404, 410 or 413; a 200 eval must count what
// a fresh cxrpq.Do of the same request counts; and no cursor may outlive the
// input: the registry holds exactly the cursor the response hands out, and
// once that one is closed every goroutine the request started has exited.
// The seeds are one body per validation branch of the handler, then one per
// kind of answer.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		// decode
		`{`,
		`[1,2]`,
		`{"query":7}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a"} trailing`,
		// cursor requests
		`{"cursor":"00"}`,
		`{"cursor":"00","query":"ans()\nx y : a"}`,
		`{"cursor":"00","limit":-1}`,
		// body-only checks
		`{"db":"g1"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","limit":-1}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","deadline_ms":-5}`,
		// resolve
		`{"db":"g1","graph":"s a t","query":"ans(x, y)\nx y : a"}`,
		`{"db":"nope","query":"ans(x, y)\nx y : a"}`,
		`{"db":"g1","query":"not a query"}`,
		`{"graph":"s a","query":"ans(x, y)\nx y : a"}`,
		`{"graph":"s a t","query":"ans(x, y)\nx y : $"}`,
		`{"query":"ans(x, y)\nx y : a"}`,
		// plan
		`{"db":"g1","query":"ans(x, y)\nx y : a","k":1}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","semantics":"log","k":1}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","semantics":"bounded"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","semantics":"bounded","k":-1}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","semantics":"zap"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"zap"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"bool","limit":1}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"check","ranked":true}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","weights":{"a":2}}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","ranked":true,"weights":{"ab":2}}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"check","tuple":["u","nope"]}`,
		// execute: an error, then every kind of answer
		`{"db":"g1","query":"ans()\nx y : $x{a|b}($x)+","mode":"bool"}`,
		`{"db":"g1","query":"ans()\nx y : $x{a|b}($x)+","limit":2}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a+"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : $w{a|b}\ny z : $w+","semantics":"bounded","k":1}`,
		`{"db":"g1","query":"ans(x, y)\nx y : $w{a|b}\ny z : $w+","semantics":"log"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"check","tuple":["u","v"]}`,
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"check","tuple":["u"]}`,
		`{"db":"g1","query":"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v","mode":"explain"}`,
		`{"db":"g1","query":"ans(x, y)\nx y : $w{a+}","mode":"explain","tuple":["u","v"],"semantics":"bounded","k":2}`,
		`{"db":"g1","query":"ans(x, y)\nx y : (a|b)+","limit":2}`,
		`{"db":"g1","query":"ans(x, y)\nx y : (a|b)+","ranked":true,"limit":3,"weights":{"a":3,"b":-1}}`,
		`{"db":"g1","query":"ans(x, y)\nx y : (a|b|c)+","deadline_ms":1,"limit":1}`,
		`{"graph":"s a t\nt a s","query":"ans(x, y)\nx y : a+","ranked":true}`,
	} {
		f.Add(seed)
	}
	named := graph.MustParse(fuzzGraph)
	srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	srv.addDB("g1", graph.MustParse(fuzzGraph))
	h := srv.handler()
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 4<<10 {
			t.Skip()
		}
		var req queryRequest
		query := json.NewDecoder(strings.NewReader(body)).Decode(&req) == nil && req.Cursor == ""
		eval := query && (req.Mode == "" || req.Mode == "eval")
		var want cxrpq.Response
		if query {
			// The eval bounds what every mode of the request can cost.
			if want = fuzzReference(&req, named); errors.Is(want.Err, engine.ErrCanceled) {
				t.Skip() // too costly to fuzz with, not a finding
			}
		}

		before := runtime.NumGoroutine()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var out struct {
			Count     int    `json:"count"`
			Cursor    string `json:"cursor"`
			Truncated bool   `json:"truncated"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("status %d with a body that is not JSON: %v: %s", rec.Code, err, rec.Body)
		}

		if rec.Code == http.StatusOK && eval && !out.Truncated {
			if want.Err != nil {
				t.Fatalf("200 where a fresh Do fails: %v", want.Err)
			}
			n := want.Tuples.Len()
			if req.Limit > 0 || req.Ranked {
				lim := req.Limit
				if lim == 0 {
					lim = 4096
				}
				n = min(n, lim)
			}
			if out.Count != n {
				t.Fatalf("count %d, a fresh Do counts %d", out.Count, n)
			}
		}

		parked := 0
		if out.Cursor != "" {
			parked = 1
		}
		if open := srv.cursors.open(); open != parked {
			t.Fatalf("%d cursors parked by a response that hands out %d", open, parked)
		}
		srv.cursors.mu.Lock()
		var recs []*cursorRec
		for id, rec := range srv.cursors.recs {
			recs = append(recs, rec)
			delete(srv.cursors.recs, id)
			delete(srv.cursors.last, id)
		}
		srv.cursors.mu.Unlock()
		closeAll(recs)
		for wait := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatalf("%d goroutines before the request, %d after its cursors closed", before, runtime.NumGoroutine())
			}
		}
	})
}

// fuzzReference is a fresh cxrpq.Do of the eval a /query body asks for, on a
// copy of its database of its own, under a one-second budget.
func fuzzReference(req *queryRequest, named *graph.DB) cxrpq.Response {
	db := named
	if req.Graph != "" {
		var err error
		if db, err = graph.Parse(req.Graph); err != nil {
			return cxrpq.Response{Err: err}
		}
	}
	q, err := cxrpq.Parse(req.Query)
	if err != nil {
		return cxrpq.Response{Err: err}
	}
	r := cxrpq.Request{Op: "eval", Semantics: req.Semantics, Budget: engine.NewBudget(nil, time.Now().Add(time.Second))}
	if req.K != nil {
		r.K = *req.K
	}
	return cxrpq.Do(q, db, r)
}

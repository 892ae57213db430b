package main

// Regression tests for the cursor-registry hardening: a crypto/rand failure
// must fail the one request (500) instead of panicking the handler
// goroutine, a non-positive capacity must mean "unbounded" instead of
// spinning the eviction loop forever on an empty registry, and every way the
// registry lets go of a parked cursor must leave no goroutine behind.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/graph"
)

func TestCursorTokenEntropyFailure(t *testing.T) {
	old := randRead
	randRead = func([]byte) (int, error) { return 0, errors.New("entropy source unavailable") }
	defer func() { randRead = old }()

	srv, ts := testServer(t)
	// limit=1 on a 3-row answer set wants to park a cursor; minting its
	// token fails, which must surface as a 500 — not a panic.
	code, out := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a|b","limit":1}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d (%v), want 500", code, out)
	}
	if srv.cursors.open() != 0 {
		t.Fatalf("failed put leaked %d cursors", srv.cursors.open())
	}

	// The server keeps serving: restore entropy, same query succeeds.
	randRead = old
	code, out = postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a|b","limit":1}`)
	if code != http.StatusOK || out["cursor"] == nil {
		t.Fatalf("after entropy recovery: %d %v", code, out)
	}
}

func TestCursorRegistryUnboundedCap(t *testing.T) {
	cr := newCursorRegistry(0, time.Minute)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			if _, _, err := cr.put(&cursorRec{}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("put spun in the eviction loop with cap <= 0")
	}
	if cr.open() != 3 {
		t.Fatalf("registry holds %d records, want 3 (cap<=0 means unbounded)", cr.open())
	}
}

func TestCursorRegistryEvictsOldest(t *testing.T) {
	cr := newCursorRegistry(1, time.Minute)
	first := &cursorRec{closed: true} // closed: evicting it must not touch a nil cursor
	if _, _, err := cr.put(first); err != nil {
		t.Fatal(err)
	}
	_, evicted, err := cr.put(&cursorRec{closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != first {
		t.Fatalf("capacity eviction returned %v, want the first record", evicted)
	}
	if cr.open() != 1 {
		t.Fatalf("registry holds %d records, want 1", cr.open())
	}
}

// serveJSON posts body to path on h in-process — no connection, so no
// goroutine of the transport's — and decodes the answer.
func serveJSON(t *testing.T, h http.Handler, path, body string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: status %d, body %q: %v", path, rec.Code, rec.Body, err)
	}
	return rec.Code, out
}

// Unranked cursors parked over a database with no cached answer for their
// text hold a producer part-way through its enumeration. However the
// registry lets go of them — the idle TTL, capacity eviction, invalidation
// by /update, or the final page — the goroutine count returns to what it
// was before they were parked.
func TestParkedUnrankedCursorsLeaveNoGoroutine(t *testing.T) {
	const parked = 5
	texts := []string{"a|b", "b|a", "(a|b)", "a|b|c", "(b|a)"}
	setup := func(t *testing.T, opts serverOptions) (*server, http.Handler, []string) {
		opts.maxInflight, opts.sessionCap = 8, 16
		srv := newServer(opts)
		srv.addDB("g1", graph.MustParse("u a v\nu a w\nv b w\nw a u"))
		h := srv.handler()
		var toks []string
		for _, re := range texts {
			code, out := serveJSON(t, h, "/query", `{"db":"g1","query":"ans(x, y)\nx y : `+re+`","limit":1}`)
			tok, _ := out["cursor"].(string)
			if code != http.StatusOK || tok == "" {
				t.Fatalf("%s: %d %v, want a parked cursor", re, code, out)
			}
			toks = append(toks, tok)
		}
		return srv, h, toks
	}
	settled := func(t *testing.T, before int) {
		t.Helper()
		for wait := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatalf("%d goroutines before the cursors were parked, %d after they were let go", before, runtime.NumGoroutine())
			}
		}
	}
	gone := func(t *testing.T, h http.Handler, toks []string) {
		t.Helper()
		for _, tok := range toks {
			if code, out := serveJSON(t, h, "/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
				t.Fatalf("a let-go cursor answers %d %v, want 410", code, out)
			}
		}
	}

	t.Run("ttl", func(t *testing.T) {
		before := runtime.NumGoroutine()
		srv, h, toks := setup(t, serverOptions{cursorTTL: 20 * time.Millisecond})
		time.Sleep(50 * time.Millisecond)
		gone(t, h, toks) // the first fetch sweeps them all
		if n := srv.cursors.open(); n != 0 {
			t.Fatalf("%d cursors survived their TTL", n)
		}
		settled(t, before)
	})
	t.Run("capacity", func(t *testing.T) {
		srv, h, toks := setup(t, serverOptions{cursorCap: parked})
		before := runtime.NumGoroutine() // with a full registry
		var more []string
		for _, re := range texts {
			_, out := serveJSON(t, h, "/query", `{"db":"g1","query":"ans(x, y)\nx y : ((`+re+`))","limit":1}`)
			more = append(more, out["cursor"].(string))
		}
		gone(t, h, toks) // every one of them evicted for a newer one
		if n := srv.cursors.open(); n != parked {
			t.Fatalf("the registry holds %d cursors, want %d", n, parked)
		}
		settled(t, before)
		for _, tok := range more {
			serveJSON(t, h, "/query", `{"cursor":"`+tok+`","limit":100}`)
		}
	})
	t.Run("update", func(t *testing.T) {
		before := runtime.NumGoroutine()
		srv, h, toks := setup(t, serverOptions{})
		if code, out := serveJSON(t, h, "/update", `{"db":"g1","edges":"z a z"}`); code != http.StatusOK {
			t.Fatalf("update: %d %v", code, out)
		}
		gone(t, h, toks)
		if n := srv.cursors.open(); n != 0 {
			t.Fatalf("%d cursors survived the update", n)
		}
		settled(t, before)
	})
	t.Run("final page", func(t *testing.T) {
		before := runtime.NumGoroutine()
		srv, h, toks := setup(t, serverOptions{})
		for _, tok := range toks {
			if code, out := serveJSON(t, h, "/query", `{"cursor":"`+tok+`","limit":100}`); code != http.StatusOK || out["cursor"] != nil {
				t.Fatalf("final page: %d %v", code, out)
			}
		}
		if n := srv.cursors.open(); n != 0 {
			t.Fatalf("%d cursors survived their final page", n)
		}
		settled(t, before)
	})
}

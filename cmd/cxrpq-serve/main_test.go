package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	srv.addDB("g1", graph.MustParse("u a v\nu a w\nv b w"))
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

// getStats decodes GET /stats.
func getStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQueryEvalNamedDB(t *testing.T) {
	srv, ts := testServer(t)
	body := `{"db":"g1","query":"ans(x, y)\nx y : a"}`
	code, out := postJSON(t, ts.URL+"/query", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["count"].(float64) != 2 {
		t.Fatalf("count = %v, want 2", out["count"])
	}
	if out["fragment"] != "CRPQ" {
		t.Fatalf("fragment = %v", out["fragment"])
	}
	// The same query again must be served by the pooled plan.
	code, _ = postJSON(t, ts.URL+"/query", body)
	if code != http.StatusOK {
		t.Fatal("second query failed")
	}
	e, _ := srv.entry("g1")
	e.planMu.Lock()
	n := len(e.plans)
	e.planMu.Unlock()
	if n != 1 {
		t.Fatalf("plan pool has %d entries, want 1", n)
	}
}

func TestQueryVariableAndModes(t *testing.T) {
	_, ts := testServer(t)
	// string-variable query, Boolean mode
	code, out := postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans()\nu1 v1 : $x{a|b}\nu1 w1 : $x","mode":"bool"}`)
	if code != http.StatusOK || out["bool"] != true {
		t.Fatalf("bool query: %d %v", code, out)
	}
	// check mode with a tuple of node names
	code, out = postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"check","tuple":["u","v"]}`)
	if code != http.StatusOK || out["bool"] != true {
		t.Fatalf("check member: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans(x, y)\nx y : a","mode":"check","tuple":["v","u"]}`)
	if code != http.StatusOK || out["bool"] != false {
		t.Fatalf("check non-member: %d %v", code, out)
	}
	// explain mode
	code, out = postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans()\nu1 v1 : $x{a|b}\nu1 w1 : $x","mode":"explain"}`)
	if code != http.StatusOK || out["bool"] != true || out["explanation"] == nil {
		t.Fatalf("explain: %d %v", code, out)
	}
	// bounded semantics on a general-fragment query
	code, out = postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans()\nu1 v1 : $x{a|b}\nv1 w1 : $x+b?","semantics":"bounded","k":2,"mode":"bool"}`)
	if code != http.StatusOK {
		t.Fatalf("bounded: %d %v", code, out)
	}
}

func TestQueryInlineGraph(t *testing.T) {
	_, ts := testServer(t)
	code, out := postJSON(t, ts.URL+"/query",
		`{"graph":"s a t","query":"ans(x, y)\nx y : a"}`)
	if code != http.StatusOK || out["count"].(float64) != 1 {
		t.Fatalf("inline graph: %d %v", code, out)
	}
	answers := out["answers"].([]any)
	row := answers[0].([]any)
	if row[0] != "s" || row[1] != "t" {
		t.Fatalf("answers = %v", answers)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"query":"ans()\nx y : a"}`, http.StatusBadRequest},                                    // no db/graph
		{`{"db":"nope","query":"ans()\nx y : a"}`, http.StatusNotFound},                          // unknown db
		{`{"db":"g1","query":"not a query"}`, http.StatusBadRequest},                             // parse error
		{`{"db":"g1","query":"ans()\nx y : a","mode":"zap"}`, http.StatusBadRequest},             // bad mode
		{`{"db":"g1","query":"ans()\nx y : a","semantics":"bounded"}`, http.StatusBadRequest},    // k missing
		{`{"db":"g1","query":"ans()\nx y : $x{a|b}($x)+","mode":"bool"}`, http.StatusBadRequest}, // general fragment without bounded/log
		{`{"db":"g1","query":"` + strings.Repeat("a", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		code, out := postJSON(t, ts.URL+"/query", tc.body)
		if code != tc.code {
			t.Errorf("%.80s: status %d (%v), want %d", tc.body, code, out, tc.code)
		}
	}
	// The same bound guards the other two endpoints that read a body.
	for _, path := range []string{"/plan", "/update"} {
		body := `{"db":"g1","edges":"` + strings.Repeat("a", maxBodyBytes) + `"}`
		if code, out := postJSON(t, ts.URL+path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body: status %d (%v), want 413", path, code, out)
		}
	}
}

func TestUpdateInvalidatesSessions(t *testing.T) {
	_, ts := testServer(t)
	q := `{"db":"g1","query":"ans(x, y)\nx y : b"}`
	code, out := postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK || out["count"].(float64) != 1 {
		t.Fatalf("before update: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"w b u\nu b z"}`)
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK || out["count"].(float64) != 3 {
		t.Fatalf("after update: %d %v (want count 3)", code, out)
	}
}

// TestUpdateDeltaMaintainsSessions drives the incremental /update path: an
// insert-only delta must carry the database's atom store fine-grained (its
// entries stale in /stats until read, then the retained/extended counters
// move; no extra full rebuild) and the eval answer read after it is settled
// from the carried one ("atoms".result_carried moves by one); a "remove"
// delta is carried the same way and still serves exact answers: the text
// whose atom source is an output variable is settled too (result_carried
// moves by one), one whose source is existential is computed again
// (result_dropped moves by one instead), and invalid removals are rejected
// atomically.
func TestUpdateDeltaMaintainsSessions(t *testing.T) {
	_, ts := testServer(t)
	q := `{"db":"g1","query":"ans(x, y)\nx y : a","mode":"eval"}`
	code, out := postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("before update: %d %v", code, out)
	}
	// A bounded-semantics query files complete row tables and supports in the
	// database's atom store — what the insert-only update must maintain per
	// entry.
	qb := `{"db":"g1","query":"ans(x, y)\nx y : $w{a|b}\ny z : $w+","semantics":"bounded","k":1,"mode":"eval"}`
	if code, out := postJSON(t, ts.URL+"/query", qb); code != http.StatusOK {
		t.Fatalf("bounded query: %d %v", code, out)
	}

	sessMaint := func() map[string]any {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st["dbs"].([]any)[0].(map[string]any)["sessions_maint"].(map[string]any)
	}
	before := sessMaint()

	// Insert-only update over a known label: fine-grained maintenance.
	code, out = postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"w a u"}`)
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	if out["insert_only"] != true || out["added"].(float64) != 1 {
		t.Fatalf("update response: %v", out)
	}
	after := sessMaint()
	if after["delta_applies"].(float64) != before["delta_applies"].(float64)+1 { // one pass over the database's store, not one per pooled session
		t.Fatalf("insert-only update did not delta-maintain once: %v -> %v", before, after)
	}
	if after["full_rebuilds"].(float64) != before["full_rebuilds"].(float64) {
		t.Fatalf("insert-only update flushed the store: %v -> %v", before, after)
	}
	atoms := func() map[string]any {
		return getStats(t, ts.URL)["dbs"].([]any)[0].(map[string]any)["atoms"].(map[string]any)
	}
	if after["rel_retained"].(float64)+after["rel_extended"].(float64) != 0 || atoms()["stale"].(float64) == 0 {
		t.Fatalf("the update settled entries before any read (%v), or carried none: %v", after, atoms())
	}
	carried := atoms()["result_carried"].(float64)
	code, out = postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK || out["count"].(float64) != 3 {
		t.Fatalf("after insert update: %d %v (want count 3)", code, out)
	}
	if now := atoms()["result_carried"].(float64); now != carried+1 {
		t.Fatalf("the read after an insert settled %v carried answers, want 1", now-carried)
	}
	if read := sessMaint(); read["rel_retained"].(float64)+read["rel_extended"].(float64) == 0 {
		t.Fatalf("no entries settled by the read: %v", read)
	}

	// An answer whose atom's source is not an output variable: after the
	// removal its rows cannot say which witnesses broke.
	qe := `{"db":"g1","query":"ans(y)\nx y : a","mode":"eval"}`
	if code, out := postJSON(t, ts.URL+"/query", qe); code != http.StatusOK || out["count"].(float64) != 3 {
		t.Fatalf("existential source, before the removal: %d %v (want count 3)", code, out)
	}

	// Removal: carried too, exact answers.
	code, out = postJSON(t, ts.URL+"/update", `{"db":"g1","remove":"w a u\nu a w"}`)
	if code != http.StatusOK || out["insert_only"] != false || out["removed"].(float64) != 2 {
		t.Fatalf("remove update: %d %v", code, out)
	}
	if removed := sessMaint(); removed["delta_applies"].(float64) != after["delta_applies"].(float64)+1 || removed["full_rebuilds"].(float64) != after["full_rebuilds"].(float64) {
		t.Fatalf("the removal flushed the store: %v -> %v", after, removed)
	}
	carried = atoms()["result_carried"].(float64)
	code, out = postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK || out["count"].(float64) != 1 {
		t.Fatalf("after remove update: %d %v (want count 1)", code, out)
	}
	if now := atoms()["result_carried"].(float64); now != carried+1 {
		t.Fatalf("the read after a removal settled %v carried answers, want 1", now-carried)
	}
	carried, dropped := atoms()["result_carried"].(float64), atoms()["result_dropped"].(float64)
	code, out = postJSON(t, ts.URL+"/query", qe)
	if code != http.StatusOK || out["count"].(float64) != 1 {
		t.Fatalf("existential source, after the removal: %d %v (want count 1)", code, out)
	}
	if now := atoms(); now["result_carried"].(float64) != carried || now["result_dropped"].(float64) != dropped+1 {
		t.Fatalf("the existential-source read after a removal settled %v carried answers and dropped %v, want none and 1",
			now["result_carried"].(float64)-carried, now["result_dropped"].(float64)-dropped)
	}

	// Invalid removal: rejected, nothing applied.
	code, _ = postJSON(t, ts.URL+"/update", `{"db":"g1","remove":"u a nope"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid removal accepted: %d", code)
	}
	code, out = postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK || out["count"].(float64) != 1 {
		t.Fatalf("state changed by rejected removal: %d %v", code, out)
	}
}

// Two texts that share an atom: the first one's product searches are filed
// in the database's atom store as probe rows, which /stats shows under
// "atoms".rows, and the second one reads them from there — a hit, and no
// further miss. The first text's scan fills every node's row, so the second
// reads the complete table in place: "atoms".rows.complete counts it. The
// atom's automaton is compiled once, and "atoms".automata shows it charged to
// the store's bytes. The first text's searches show in "atoms".kernel; the
// second runs none.
func TestStatsAtomRowsShared(t *testing.T) {
	_, ts := testServer(t)
	atoms := func() map[string]any {
		return getStats(t, ts.URL)["dbs"].([]any)[0].(map[string]any)["atoms"].(map[string]any)
	}
	for i, text := range []string{`ans(x, y)\nx y : a`, `ans(p, q)\np q : a`} {
		before := atoms()
		code, out := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"`+text+`"}`)
		if code != http.StatusOK || out["count"].(float64) != 2 {
			t.Fatalf("%s: %d %v", text, code, out)
		}
		after := atoms()
		rows := after["rows"].(map[string]any)
		if rows["entries"].(float64) == 0 || rows["bytes"].(float64) == 0 {
			t.Fatalf("%s: no probe rows filed: %v", text, after)
		}
		automata := after["automata"].(map[string]any)
		if automata["entries"].(float64) == 0 || after["bytes"].(float64) < automata["bytes"].(float64)+rows["bytes"].(float64) {
			t.Fatalf("%s: no automaton charged to the store: %v", text, after)
		}
		if i == 1 && automata["entries"] != before["automata"].(map[string]any)["entries"] {
			t.Fatalf("%s: the shared atom was compiled again: %v -> %v", text, before, after)
		}
		if complete, _ := rows["complete"].(float64); i == 1 && complete < 1 {
			t.Fatalf("%s: no complete row table read in place: %v", text, rows)
		}
		if hit := after["misses"] == before["misses"] && after["hits"].(float64) > before["hits"].(float64); hit != (i == 1) {
			t.Fatalf("%s: rows came back as a hit: %v, want %v (%v -> %v)", text, hit, i == 1, before, after)
		}
		kb, ka := before["kernel"].(map[string]any), after["kernel"].(map[string]any)
		if searched := ka["batches"].(float64) > kb["batches"].(float64) && ka["edges"].(float64) > kb["edges"].(float64); searched != (i == 0) {
			t.Fatalf("%s: kernel searched: %v, want %v (%v -> %v)", text, searched, i == 0, kb, ka)
		}
	}
}

// TestStatsReportsResults: answers are cached per database, in its atom
// store, and /stats shows them under "atoms". The same /query twice is one
// answer filed and one hit; an insert-only /update publishes a revision
// whose store holds that answer carried, stale, so the query misses once and
// returns the new rows, settled from the carried answer in its place.
// "sessions" counts the pooled plans, which a publish leaves alone.
func TestStatsReportsResults(t *testing.T) {
	_, ts := testServer(t)
	db := func() map[string]any { return getStats(t, ts.URL)["dbs"].([]any)[0].(map[string]any) }
	entries := func(atoms map[string]any) float64 {
		return atoms["results"].(map[string]any)["entries"].(float64)
	}
	const q = `{"db":"g1","query":"ans(x, y)\nx y : a"}`
	query := func(want float64) {
		t.Helper()
		if code, out := postJSON(t, ts.URL+"/query", q); code != http.StatusOK || out["count"].(float64) != want {
			t.Fatalf("query: %d %v, want %v rows", code, out, want)
		}
	}
	before := db()["atoms"].(map[string]any)
	query(2)
	query(2)
	st := db()
	atoms := st["atoms"].(map[string]any)
	if hits := atoms["result_hits"].(float64) - before["result_hits"].(float64); hits != 1 || entries(atoms) != 1 {
		t.Fatalf("the same query twice: %v hits over %v entries, want 1 over 1 (%v)", hits, entries(atoms), atoms)
	}
	if results := atoms["results"].(map[string]any); results["bytes"].(float64) == 0 || atoms["bytes"].(float64) < results["bytes"].(float64) {
		t.Fatalf("the answer is not charged to the store's account: %v", atoms)
	}
	if st["sessions"].(float64) != 1 {
		t.Fatalf("sessions = %v, want the one pooled plan", st["sessions"])
	}

	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"w a u"}`); code != http.StatusOK || out["insert_only"] != true {
		t.Fatalf("update: %d %v", code, out)
	}
	st = db()
	if after := st["atoms"].(map[string]any); entries(after) != 1 {
		t.Fatalf("the new revision's store holds %v answers, want the one carried", entries(after))
	}
	if st["sessions"].(float64) != 1 {
		t.Fatalf("sessions = %v after a publish, want the one pooled plan still", st["sessions"])
	}
	misses := st["atoms"].(map[string]any)["result_misses"].(float64)
	carried := st["atoms"].(map[string]any)["result_carried"].(float64)
	query(3)
	after := db()["atoms"].(map[string]any)
	if n := after["result_misses"].(float64) - misses; n != 1 || entries(after) != 1 || after["result_carried"].(float64) != carried+1 {
		t.Fatalf("the query after the update: %v misses, %v entries, %v settled from a carried answer; want 1, 1, 1",
			n, entries(after), after["result_carried"].(float64)-carried)
	}
}

// TestStatsKernelPerDatabase: kernel work is counted per database. A query on
// one of two named databases moves only that database's "atoms".kernel, the
// top-level "engine" is the sum over the databases, and there is no
// process-wide "match_cache".
func TestStatsKernelPerDatabase(t *testing.T) {
	srv, ts := testServer(t)
	srv.addDB("g2", graph.MustParse("p a q\nq b r"))
	kernels := func() (st map[string]any, per map[string]map[string]any) {
		st, per = getStats(t, ts.URL), map[string]map[string]any{}
		for _, d := range st["dbs"].([]any) {
			d := d.(map[string]any)
			per[d["name"].(string)] = d["atoms"].(map[string]any)["kernel"].(map[string]any)
		}
		return st, per
	}
	_, before := kernels()
	queries := []string{
		`{"db":"g2","query":"ans(x, y)\nx y : a b"}`,
		`{"db":"g2","query":"ans(x, y)\nx y : $w{a|b}\ny z : $w+","semantics":"bounded","k":1}`,
	}
	for _, q := range queries {
		if code, out := postJSON(t, ts.URL+"/query", q); code != http.StatusOK {
			t.Fatalf("%s: %d %v", q, code, out)
		}
	}
	st, after := kernels()
	if len(after) != 2 {
		t.Fatalf("stats dbs = %v", st["dbs"])
	}
	if after["g2"]["batches"].(float64) <= before["g2"]["batches"].(float64) || after["g2"]["edges"].(float64) <= before["g2"]["edges"].(float64) {
		t.Fatalf("g2's kernel did not move: %v -> %v", before["g2"], after["g2"])
	}
	if fmt.Sprint(after["g1"]) != fmt.Sprint(before["g1"]) {
		t.Fatalf("a query on g2 moved g1's kernel: %v -> %v", before["g1"], after["g1"])
	}
	total := st["engine"].(map[string]any)
	for _, k := range []string{"batches", "levels", "sources", "edges"} {
		if sum := after["g1"][k].(float64) + after["g2"][k].(float64); total[k] != sum {
			t.Fatalf("engine.%s = %v, want the sum over the databases %v", k, total[k], sum)
		}
	}
	if _, ok := st["match_cache"]; ok {
		t.Fatalf("/stats has a process-wide match_cache: %v", st)
	}
}

func TestInflightLimiter(t *testing.T) {
	srv, ts := testServer(t)
	// Fill the soft cap: queries are still admitted, but degraded — they
	// run under the shed budget and carry the shed marker instead of 429.
	for i := 0; i < srv.opts.maxInflight; i++ {
		srv.inflight <- struct{}{}
	}
	code, out := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a"}`)
	if code != http.StatusOK {
		t.Fatalf("soft saturation: status %d (%v), want 200", code, out)
	}
	if out["shed"] != true {
		t.Fatalf("soft saturation response not marked shed: %v", out)
	}
	// The tiny graph finishes inside the shed budget, so the rows are
	// complete and not truncated; partial-row shedding under a genuinely
	// expired budget is covered by TestQueryDeadline.
	if out["count"].(float64) != 2 {
		t.Fatalf("shed query lost rows: %v", out)
	}
	// Fill to the hard cap: now requests are refused.
	for i := srv.opts.maxInflight; i < 2*srv.opts.maxInflight; i++ {
		srv.inflight <- struct{}{}
	}
	code, out = postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans()\nx y : a"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("hard saturation: status %d (%v), want 429", code, out)
	}
	for i := 0; i < 2*srv.opts.maxInflight; i++ {
		<-srv.inflight
	}
	code, out = postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans()\nx y : a"}`)
	if code != http.StatusOK {
		t.Fatalf("after release: status %d", code)
	}
	if out["shed"] == true {
		t.Fatalf("unloaded server still shedding: %v", out)
	}
}

// TestQueryPagination walks a result set page by page through cursor
// tokens and checks the pages concatenate to the full answer set, cursors
// are reclaimed on the final page, and updates invalidate parked cursors.
func TestQueryPagination(t *testing.T) {
	srv, ts := testServer(t)
	full := map[string]bool{}
	q := `{"db":"g1","query":"ans(x, y)\nx y : a|b","limit":1}`
	code, out := postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK {
		t.Fatalf("first page: %d %v", code, out)
	}
	pages := 1
	for {
		answers, _ := out["answers"].([]any) // final page may be empty
		for _, row := range answers {
			r := row.([]any)
			key := r[0].(string) + "->" + r[1].(string)
			if full[key] {
				t.Fatalf("row %s served twice", key)
			}
			full[key] = true
		}
		tok, ok := out["cursor"].(string)
		if !ok {
			break
		}
		code, out = postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`","limit":1}`)
		if code != http.StatusOK {
			t.Fatalf("page %d: %d %v", pages, code, out)
		}
		pages++
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(full) != 3 || pages < 3 {
		t.Fatalf("paginated %d rows over %d pages, want 3 rows over >=3 pages (%v)", len(full), pages, full)
	}
	if out["truncated"] == true {
		t.Fatalf("exhausted stream reported truncated: %v", out)
	}
	if srv.cursors.open() != 0 {
		t.Fatalf("%d cursors leaked after exhaustion", srv.cursors.open())
	}

	// A parked cursor is invalidated by an update of its database.
	code, out = postJSON(t, ts.URL+"/query", q)
	if code != http.StatusOK {
		t.Fatalf("reopen: %d %v", code, out)
	}
	tok := out["cursor"].(string)
	if code, _ = postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"z a z"}`); code != http.StatusOK {
		t.Fatalf("update: %d", code)
	}
	code, out = postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`"}`)
	if code != http.StatusGone {
		t.Fatalf("stale cursor: %d %v, want 410", code, out)
	}
	// And a bogus token is refused outright.
	code, _ = postJSON(t, ts.URL+"/query", `{"cursor":"beefbeef"}`)
	if code != http.StatusGone {
		t.Fatalf("bogus cursor: %d, want 410", code)
	}
}

// TestQueryRanked asks for shortest-witness-first order: costs come back
// nondecreasing, one per answer.
func TestQueryRanked(t *testing.T) {
	_, ts := testServer(t)
	code, out := postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans(x, y)\nx y : a b|a","ranked":true}`)
	if code != http.StatusOK {
		t.Fatalf("ranked: %d %v", code, out)
	}
	costs := out["costs"].([]any)
	if len(costs) != len(out["answers"].([]any)) || len(costs) == 0 {
		t.Fatalf("costs/answers mismatch: %v", out)
	}
	prev := -1.0
	for _, c := range costs {
		if c.(float64) < prev {
			t.Fatalf("ranked costs decrease: %v", costs)
		}
		prev = c.(float64)
	}
}

// TestQueryDeadline: an already-expired deadline yields 200 with the rows
// found so far (possibly none) and truncated set — not an error.
func TestQueryDeadline(t *testing.T) {
	_, ts := testServer(t)
	code, out := postJSON(t, ts.URL+"/query",
		`{"db":"g1","query":"ans(x, y)\nx y : a","deadline_ms":1,"limit":10}`)
	if code != http.StatusOK {
		t.Fatalf("deadline query: %d %v", code, out)
	}
	// With a 1ms budget on a tiny graph either outcome is legal, but a
	// short page without a cursor must be flagged truncated or complete.
	if out["cursor"] != nil {
		t.Fatalf("deadline query parked a cursor: %v", out)
	}
	if out["truncated"] != true && out["count"].(float64) != 2 {
		t.Fatalf("deadline query neither complete nor truncated: %v", out)
	}
}

// deadline_ms bounds every mode: an explain that would run for a quarter of a
// minute (the equality group of the query walks 200² source pairs) comes back
// when its 20 ms are over, 200 with no explanation and truncated set.
func TestQueryDeadlineBoundsExplain(t *testing.T) {
	srv, ts := testServer(t)
	srv.addDB("rnd", workload.Random(7, 200, 600, "ab"))
	start := time.Now()
	code, out := postJSON(t, ts.URL+"/query",
		`{"db":"rnd","query":"ans()\nu v1 : $x{(a|b)+}b\nw v2 : a$x\nz v3 : $x a","mode":"explain","deadline_ms":20}`)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("explain under a 20 ms deadline answered after %v", took)
	}
	if code != http.StatusOK || out["truncated"] != true || out["bool"] != false || out["explanation"] != nil {
		t.Fatalf("explain under a 20 ms deadline: %d %v; want 200, truncated, no explanation", code, out)
	}
}

// deadline_ms bounds a wide vstar-free union too: a text of 40 alternation
// factors is a union of 2^40 members, and /query under a 100 ms deadline
// answers 200 with truncated set, without multiplying the text out first.
func TestQueryDeadlineBoundsWideUnion(t *testing.T) {
	srv, ts := testServer(t)
	srv.addDB("cyc", graph.MustParse("n0 a n1\nn1 b n0\nn1 a n0\nn0 b n1"))
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "($a%d{a}|$b%d{b})", i, i)
	}
	start := time.Now()
	code, out := postJSON(t, ts.URL+"/query", `{"db":"cyc","query":"ans(x, y)\nx y : `+sb.String()+`","deadline_ms":100}`)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("a 2^40-member union under a 100 ms deadline answered after %v", took)
	}
	if code != http.StatusOK || out["truncated"] != true {
		t.Fatalf("a 2^40-member union under a 100 ms deadline: %d %v; want 200, truncated", code, out)
	}
}

// Nodes an /update adds come back by name, through the name table the publish
// extended, on a first page and on a cursor page alike.
func TestUpdateNewNodesAnswerByName(t *testing.T) {
	_, ts := testServer(t)
	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"w c <é&>\n<é&> c q\"t"}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	want := map[string]bool{`w-><é&>`: true, `<é&>->q"t`: true}
	q := `{"db":"g1","query":"ans(x, y)\nx y : c"`
	code, out := postJSON(t, ts.URL+"/query", q+`}`)
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("query: %d %v", code, out)
	}
	for _, row := range out["answers"].([]any) {
		r := row.([]any)
		if key := r[0].(string) + "->" + r[1].(string); !want[key] {
			t.Fatalf("query answered %q, want one of %v", key, want)
		}
	}
	got := map[string]bool{}
	code, out = postJSON(t, ts.URL+"/query", q+`,"limit":1}`)
	for pages := 0; ; pages++ {
		if code != http.StatusOK || pages > 3 {
			t.Fatalf("page %d: %d %v", pages, code, out)
		}
		answers, _ := out["answers"].([]any)
		for _, row := range answers {
			r := row.([]any)
			got[r[0].(string)+"->"+r[1].(string)] = true
		}
		tok, ok := out["cursor"].(string)
		if !ok {
			break
		}
		code, out = postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`"}`)
	}
	if len(got) != len(want) || !got[`w-><é&>`] || !got[`<é&>->q"t`] {
		t.Fatalf("pages answered %v, want %v", got, want)
	}
}

// A page larger than the server's 4 KB write buffer goes out with its
// Content-Length, not chunked.
func TestLargePageContentLength(t *testing.T) {
	srv, ts := testServer(t)
	var edges strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&edges, "u%d a v%d\n", i, j)
		}
	}
	srv.addDB("big", graph.MustParse(edges.String()))
	for _, body := range []string{
		`{"db":"big","query":"ans(x, y)\nx y : a"}`,
		`{"db":"big","query":"ans(x, y)\nx y : a","limit":1000}`,
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", body, resp.StatusCode, err)
		}
		if len(b) <= 4096 || resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: %d-byte body, Content-Length %d, Transfer-Encoding %v", body, len(b), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// A body that fails to build answers 500 with the error, not 200 with an empty
// body: the status is written only once the body is complete.
func TestSendFillFailure(t *testing.T) {
	for name, write := range map[string]func(w http.ResponseWriter){
		"fill error": func(w http.ResponseWriter) {
			send(w, http.StatusOK, func(buf *bytes.Buffer) error {
				buf.WriteString(`{"partial":`)
				return errors.New("fill failed")
			})
		},
		"unencodable value": func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, math.NaN()) },
	} {
		rec := httptest.NewRecorder()
		write(rec)
		var out errResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
			t.Fatalf("%s: body %q: %v", name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: status %d, Content-Length %q for %d bytes", name, rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans()\nx y : a","mode":"bool"}`)
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dbs := st["dbs"].([]any)
	if len(dbs) != 1 || dbs[0].(map[string]any)["name"] != "g1" {
		t.Fatalf("stats dbs = %v", dbs)
	}
}

// The listening server drops clients that stall in their headers or idle on a
// kept-alive connection, and never cuts a response short.
func TestServeTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := serve("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 || hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: want both set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.Addr != "127.0.0.1:0" || hs.Handler != http.Handler(h) {
		t.Fatalf("serve built %+v", hs)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// g1 has two a-edges from u and one b-edge from v; the order reads none of
	// it: fewest unbound endpoints first, ties in query order.
	code, out := postJSON(t, ts.URL+"/plan", `{"db":"g1","query":"ans(x, z)\nx y : a\ny z : b"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["fragment"] != "CRPQ" || out["nodes"] != 3.0 || out["edges"] != 3.0 {
		t.Fatalf("plan header = %v", out)
	}
	for _, gone := range []string{"strategy", "acyclic", "free_connex", "join_tree", "minimized_atoms", "total_cost", "est_rows", "labels"} {
		if _, ok := out[gone]; ok {
			t.Fatalf("plan still reports %q: %v", gone, out)
		}
	}
	steps := out["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("steps = %v", steps)
	}
	first := steps[0].(map[string]any)
	if first["edge"] != 0.0 || first["label"] != "a" || first["mode"] != "scan" || first["reads"] != "pairs" {
		t.Fatalf("first step = %v", first)
	}
	if _, ok := first["est_pairs"]; ok {
		t.Fatalf("step still reports an estimate: %v", first)
	}
	second := steps[1].(map[string]any)
	if second["edge"] != 1.0 || second["label"] != "b" || second["mode"] != "expand" || second["reads"] != "pairs" {
		t.Fatalf("second step = %v", second)
	}
	// Inline graphs work too; unknown db and missing query are rejected.
	code, _ = postJSON(t, ts.URL+"/plan", `{"graph":"u a v","query":"ans(x, y)\nx y : a"}`)
	if code != http.StatusOK {
		t.Fatalf("inline plan status %d", code)
	}
	code, _ = postJSON(t, ts.URL+"/plan", `{"db":"nope","query":"ans()\nx y : a"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown db status %d", code)
	}
	code, _ = postJSON(t, ts.URL+"/plan", `{"db":"g1"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("missing query status %d", code)
	}
}

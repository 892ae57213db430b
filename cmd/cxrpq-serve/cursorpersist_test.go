package main

// Stateful cursor tokens and publish-time invalidation: a ranked cursor
// parked on a durable database must survive a kill -9 (the restarted server
// rebuilds the stream from the token, exactly where it left off), a
// mutation of the database must invalidate it eagerly — on the leader's
// /update and on a follower's tail republish alike — a hostile token must
// answer 400 or 410, a page must write nothing to the WAL, and per-label
// weights must ride the HTTP surface end to end.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/graph"
)

// seedChain posts a path n0 -a-> n1 -a-> ... -a-> n<k> as one /update batch.
func seedChain(t *testing.T, url string, k int) {
	t.Helper()
	var lines []string
	for i := 0; i < k; i++ {
		lines = append(lines, fmt.Sprintf("n%d a n%d", i, i+1))
	}
	code, out := postJSON(t, url+"/update", `{"db":"g1","edges":"`+strings.Join(lines, `\n`)+`"}`)
	if code != http.StatusOK {
		t.Fatalf("seed: %d %v", code, out)
	}
}

func answersOf(out map[string]any) [][]string {
	var rows [][]string
	if out["answers"] == nil {
		return nil
	}
	for _, a := range out["answers"].([]any) {
		var row []string
		for _, v := range a.([]any) {
			row = append(row, v.(string))
		}
		rows = append(rows, row)
	}
	return rows
}

const rankedChainQuery = `{"db":"g1","query":"ans(x, y)\nx y : a+","ranked":true`

func TestCursorRestartResumesPagination(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := durableServer(t, dir)
	seedChain(t, ts.URL, 5) // 15 ranked pairs (i < j), cost j-i

	// The whole ranked answer list, as one page: the ground truth.
	code, full := postJSON(t, ts.URL+"/query", rankedChainQuery+`}`)
	if code != http.StatusOK || full["count"].(float64) != 15 {
		t.Fatalf("full ranked query: %d %v", code, full)
	}
	want := answersOf(full)

	// Page 1 parks a cursor, page 2 advances it.
	code, p1 := postJSON(t, ts.URL+"/query", rankedChainQuery+`,"limit":5}`)
	if code != http.StatusOK || p1["cursor"] == nil {
		t.Fatalf("page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)
	code, p2 := postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`","limit":5}`)
	if code != http.StatusOK || p2["cursor"] == nil {
		t.Fatalf("page 2: %d %v", code, p2)
	}
	tok2 := p2["cursor"].(string)

	// kill -9: no graceful shutdown, no store Close. The restarted server
	// must resume the token mid-stream instead of answering 410.
	ts.Close()
	_, ts2, _ := durableServer(t, dir)
	got := append(answersOf(p1), answersOf(p2)...)
	var page3 [][]string
	for tok = tok2; len(got) < len(want); {
		code, p := postJSON(t, ts2.URL+"/query", `{"cursor":"`+tok+`","limit":5}`)
		if code != http.StatusOK {
			t.Fatalf("post-restart fetch after %d rows: %d %v", len(got), code, p)
		}
		rows := answersOf(p)
		if page3 == nil {
			page3 = rows
		}
		if len(rows) == 0 && p["cursor"] == nil {
			break
		}
		got = append(got, rows...)
		tok, _ = p["cursor"].(string)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed pagination delivered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
			t.Fatalf("row %d: resumed pagination gave %v, full drain gave %v", i, got[i], want[i])
		}
	}

	// Page 2's token, fetched again, is an idempotent retry of page 3.
	code, again := postJSON(t, ts2.URL+"/query", `{"cursor":"`+tok2+`","limit":5}`)
	if code != http.StatusOK || fmt.Sprint(answersOf(again)) != fmt.Sprint(page3) {
		t.Fatalf("page 2's token again: %d %v, want page 3 %v", code, again, page3)
	}
}

func TestCursorRestartAfterUpdateGives410(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir)
	seedChain(t, ts.URL, 5)
	code, p1 := postJSON(t, ts.URL+"/query", rankedChainQuery+`,"limit":5}`)
	if code != http.StatusOK || p1["cursor"] == nil {
		t.Fatalf("page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)

	// The mutation invalidates the parked cursor at publish time — the
	// registry is empty before any fetch could trip the lazy check.
	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"n9 a n8"}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	if n := srv.cursors.open(); n != 0 {
		t.Fatalf("publish left %d parked cursors, want eager invalidation", n)
	}
	if code, _ := postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
		t.Fatalf("fetch after update = %d, want 410", code)
	}

	// Nor does a restart bring it back: the token's revision pin is no
	// longer current, and startup parks no cursor.
	ts.Close()
	srv2, ts2, _ := durableServer(t, dir)
	if n := srv2.cursors.open(); n != 0 {
		t.Fatalf("restart resurrected %d invalidated cursors", n)
	}
	if code, _ := postJSON(t, ts2.URL+"/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
		t.Fatalf("post-restart fetch of invalidated cursor = %d, want 410", code)
	}
}

// A follower's tail republish must invalidate its parked cursors exactly
// like a leader /update does: a cursor materialized before the tail loop
// replays a batch answers 410 afterwards, not rows from a stale epoch.
func TestFollowerPublishInvalidatesCursors(t *testing.T) {
	dir := t.TempDir()
	_, lts, _ := durableServer(t, dir)
	seedChain(t, lts.URL, 5)

	fo, err := graph.OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	fsrv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	fe := fsrv.addDB("g1", fo.DB())
	fe.follower = fo
	stop := make(chan struct{})
	defer close(stop)
	go fe.tail(2*time.Millisecond, stop)
	fts := httptest.NewServer(fsrv.handler())
	defer fts.Close()

	code, p1 := postJSON(t, fts.URL+"/query", rankedChainQuery+`,"limit":5}`)
	if code != http.StatusOK || p1["cursor"] == nil {
		t.Fatalf("follower page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)

	// Leader writes; the follower's tail loop republishes and must drop the
	// pinned cursor as it does.
	if code, out := postJSON(t, lts.URL+"/update", `{"db":"g1","edges":"n9 a n8"}`); code != http.StatusOK {
		t.Fatalf("leader update: %d %v", code, out)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fsrv.cursors.open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower republish never invalidated the parked cursor")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := postJSON(t, fts.URL+"/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
		t.Fatalf("fetch after follower republish = %d, want 410", code)
	}
}

// Per-label weights ride the request into the ranked stream: costs reflect
// the weight map, and weights without ranked are rejected.
func TestQueryWeights(t *testing.T) {
	_, ts := testServer(t) // g1: u a v, u a w, v b w
	body := `{"db":"g1","query":"ans(x, y)\nx y : a|b","ranked":true,"weights":{"b":5}}`
	code, out := postJSON(t, ts.URL+"/query", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	var costs []float64
	for _, c := range out["costs"].([]any) {
		costs = append(costs, c.(float64))
	}
	if len(costs) != 3 || costs[0] != 1 || costs[1] != 1 || costs[2] != 5 {
		t.Fatalf("costs = %v, want [1 1 5] under b=5", costs)
	}

	if code, _ := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a","weights":{"a":2}}`); code != http.StatusBadRequest {
		t.Fatalf("weights without ranked = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a","ranked":true,"weights":{"ab":2}}`); code != http.StatusBadRequest {
		t.Fatalf("multi-rune weight key = %d, want 400", code)
	}
}

// A ranked cursor whose deadline expires mid-pagination serves the rows it
// had collected and flags every remaining page "truncated": the JSON must
// carry the flag end to end, so a deadline-cut ranked result can never read
// as a complete top-k.
func TestServerRankedDeadlinePageTruncated(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&sb, "n%d %c n%d\n", i, "ab"[(i+j)%2], (i*7+j*13)%500)
		}
	}
	srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	srv.addDB("big", graph.MustParse(sb.String()))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// First page: the incremental ranked stream surfaces one row well within
	// the deadline and parks.
	body := `{"db":"big","query":"ans(x, z)\nx y : a+\ny z : b+","ranked":true,"limit":1,"deadline_ms":250}`
	code, p1 := postJSON(t, ts.URL+"/query", body)
	if code != http.StatusOK || p1["cursor"] == nil || p1["count"].(float64) != 1 {
		t.Fatalf("page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)

	// The deadline covers the cursor's lifetime: once it passes, the next
	// page must say truncated, not pretend the stream completed.
	time.Sleep(600 * time.Millisecond)
	code, p2 := postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`","limit":1048576}`)
	if code != http.StatusOK {
		t.Fatalf("page 2: %d %v", code, p2)
	}
	if p2["truncated"] != true {
		t.Fatalf("deadline-cut ranked page lost its truncated flag: %v", p2)
	}
}

// Paging a ranked cursor on a durable database appends nothing to its WAL
// and fsyncs nothing: the token carries the cursor. So a page, parked or
// rebuilt, completes while a writer holds the database.
func TestRankedPagesWriteNoWAL(t *testing.T) {
	srv, ts, _ := durableServer(t, t.TempDir())
	seedChain(t, ts.URL, 6)
	wal := func() string {
		st := getStats(t, ts.URL)["dbs"].([]any)[0].(map[string]any)["store"].(map[string]any)
		return fmt.Sprint(st["wal_bytes"], " bytes, ", st["wal_fsyncs"], " fsyncs")
	}
	before := wal()
	code, p := postJSON(t, ts.URL+"/query", rankedChainQuery+`,"limit":2}`)
	var toks []string
	for i := 0; i < 3; i++ {
		tok, _ := p["cursor"].(string)
		if code != http.StatusOK || tok == "" {
			t.Fatalf("page %d: %d %v", i+1, code, p)
		}
		toks = append(toks, tok)
		code, p = postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`"}`)
	}
	if code != http.StatusOK {
		t.Fatalf("page 4: %d %v", code, p)
	}
	if after := wal(); after != before {
		t.Fatalf("paging a ranked cursor moved the WAL from %s to %s", before, after)
	}

	e, _ := srv.entry("g1")
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	for _, tok := range []string{p["cursor"].(string), toks[0]} { // parked, then rebuilt
		done := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"cursor":"`+tok+`"}`))
			if err == nil {
				resp.Body.Close()
				done <- resp.StatusCode
			}
			close(done)
		}()
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("a page under a held writer lock: %d", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a page waited for the writer")
		}
	}
}

// A token is the client's to forge: whatever it claims, a fetch answers 400
// or 410 — never 500, never a panic — and a fast-forward a forged position
// asks for runs under the token's deadline.
func TestHostileCursorTokens(t *testing.T) {
	_, ts, st := durableServer(t, t.TempDir())
	var edges []string
	for i := 0; i < 500; i++ {
		for j := 0; j < 6; j++ {
			edges = append(edges, fmt.Sprintf("n%d %c n%d", i, "ab"[(i+j)%2], (i*7+j*13)%500))
		}
	}
	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"`+strings.Join(edges, `\n`)+`"}`); code != http.StatusOK {
		t.Fatalf("seed: %d %v", code, out)
	}
	rev, now := st.DB().Revision(), time.Now()
	base := queryRequest{DB: "g1", Query: "ans(x, z)\nx y : a+\ny z : b+", Ranked: true, Limit: 5}
	token := func(edit func(s *cursorState, tok *cursorToken)) string {
		s := cursorState{Req: base, Rev: rev, Deadline: now.Add(time.Hour).UnixMilli()}
		tok := cursorToken{id: "feedfacefeedfacefeedfacefeedface", rows: 5, expiry: now.Add(time.Hour).UnixMilli()}
		edit(&s, &tok)
		if tok.state == "" {
			tok.state = s.encode()
		}
		return tok.String()
	}
	k := 1
	for _, c := range []struct {
		name string
		tok  string
		want int
	}{
		{"malformed base64", token(func(_ *cursorState, tok *cursorToken) { tok.state = "e30=!" }), http.StatusBadRequest},
		{"unknown db", token(func(s *cursorState, _ *cursorToken) { s.Req.DB = "nope" }), http.StatusGone},
		{"stale revision", token(func(s *cursorState, _ *cursorToken) { s.Rev-- }), http.StatusGone},
		{"past deadline", token(func(s *cursorState, _ *cursorToken) { s.Deadline = now.Add(-time.Second).UnixMilli() }), http.StatusGone},
		{"past expiry", token(func(_ *cursorState, tok *cursorToken) { tok.expiry = now.Add(-time.Second).UnixMilli() }), http.StatusGone},
		{"unranked", token(func(s *cursorState, _ *cursorToken) { s.Req.Ranked = false }), http.StatusGone},
		{"bounded without k", token(func(s *cursorState, _ *cursorToken) { s.Req.Semantics = "bounded" }), http.StatusBadRequest},
		{"bounded with k", token(func(s *cursorState, _ *cursorToken) { s.Req.Semantics, s.Req.K = "bounded", &k }), http.StatusOK},
		{"multi-rune weight key", token(func(s *cursorState, _ *cursorToken) { s.Req.Weights = map[string]int{"ab": 2} }), http.StatusBadRequest},
		{"five fields", token(func(*cursorState, *cursorToken) {}) + ".1", http.StatusBadRequest},
	} {
		if code, out := postJSON(t, ts.URL+"/query", `{"cursor":"`+c.tok+`"}`); code != c.want {
			t.Errorf("%s: %d %v, want %d", c.name, code, out, c.want)
		}
	}

	// A forged position past any answer under a 50 ms deadline comes back
	// within the deadline, cut short and saying so.
	deadline := time.Now().Add(50 * time.Millisecond)
	forged := token(func(s *cursorState, tok *cursorToken) { s.Deadline, tok.rows = deadline.UnixMilli(), 1e9 })
	code, out := postJSON(t, ts.URL+"/query", `{"cursor":"`+forged+`"}`)
	if late := time.Since(deadline); code != http.StatusOK || out["truncated"] != true || late > 250*time.Millisecond {
		t.Fatalf("forged rows count: %d %v, %v past its deadline; want a truncated page within it", code, out, late)
	}
}

// FuzzCursorToken holds the token decoder to its encoder: parsing and
// decoding arbitrary bytes never panics, what decodes encodes to a token that
// decodes to the same, and a token built from the inputs (its strings valid
// UTF-8, as any decoded request's are) round-trips.
func FuzzCursorToken(f *testing.F) {
	st := cursorState{Req: queryRequest{DB: "g1", Query: "ans(x, y)\nx y : a+", Ranked: true, Limit: 5,
		Weights: map[string]int{"a": 2}}, Rev: 7, Deadline: 1700000000000}
	f.Add(cursorToken{"beef", st.encode(), 10, 1700000060000}.String(), "g1", "ans(x, y)\nx y : a+", uint64(7), int64(10))
	f.Add("beefbeef", "", "", uint64(0), int64(0))
	f.Add("a.e30.1.2", "é", "\xff", uint64(1<<63), int64(-1))
	f.Add("a..1.2", "", "", uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, s, db, query string, rev uint64, n int64) {
		if tok, err := parseToken(s); err == nil {
			if again, err := parseToken(tok.String()); err != nil || again != tok {
				t.Fatalf("%q parses to %+v, which re-parses to %+v (%v)", s, tok, again, err)
			}
			if st, err := decodeState(tok.state); err == nil {
				if again, err := decodeState(st.encode()); err != nil || again.encode() != st.encode() {
					t.Fatalf("%q decodes to %+v, which round-trips to %+v (%v)", s, st, again, err)
				}
			}
		}
		k := int(n % 1000)
		st := cursorState{Req: queryRequest{DB: strings.ToValidUTF8(db, "?"), Query: strings.ToValidUTF8(query, "?"),
			Semantics: "bounded", K: &k, Ranked: n%2 == 0, Limit: k, Weights: map[string]int{strings.ToValidUTF8(db, "?"): k}}, Rev: rev, Deadline: n}
		tok := cursorToken{id: strings.ReplaceAll(s, ".", ""), state: st.encode(), rows: n, expiry: -n}
		got, err := parseToken(tok.String())
		if err != nil || got != tok {
			t.Fatalf("%+v parses back to %+v (%v)", tok, got, err)
		}
		if back, err := decodeState(got.state); err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("%+v decodes back to %+v (%v)", st, back, err)
		}
	})
}

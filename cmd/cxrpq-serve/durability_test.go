package main

// Server-level durability: every /update acknowledged over HTTP must
// survive an abrupt process death (simulated by re-opening the store
// directory without any graceful shutdown), a torn WAL tail must not take
// acknowledged batches with it, a WAL append failure must wedge writes
// without disturbing the published read state, a failed checkpoint after a
// durable append must not, and a follower server must
// converge on the leader's acknowledged batches. And the exit path a SIGTERM
// takes must drain the requests in flight and close the stores.

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/graph"
)

// durableServer opens (or re-opens) a store directory and serves it as db
// "g1", exactly like `cxrpq-serve -data-dir` does.
func durableServer(t *testing.T, dir string) (*server, *httptest.Server, *graph.Store) {
	t.Helper()
	return durableServerWith(t, dir, graph.StoreOptions{})
}

func durableServerWith(t *testing.T, dir string, opts graph.StoreOptions) (*server, *httptest.Server, *graph.Store) {
	t.Helper()
	st, err := graph.OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	e := srv.addDB("g1", st.DB())
	e.store = st
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts, st
}

func countA(t *testing.T, url string) float64 {
	t.Helper()
	code, out := postJSON(t, url+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a"}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	return out["count"].(float64)
}

func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := durableServer(t, dir)

	// Acknowledged batches: each /update returned 200, so each is durable.
	var rev float64
	for _, edges := range []string{"u a v", "u a w", `v a w\nw b u`, "w a x"} {
		code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"`+edges+`"}`)
		if code != http.StatusOK {
			t.Fatalf("update %q: %d %v", edges, code, out)
		}
		rev = out["revision"].(float64)
	}
	want := countA(t, ts.URL)
	ts.Close()
	// No store.Close(), no checkpoint: the "process" died holding its WAL.

	_, ts2, st2 := durableServer(t, dir)
	if got := countA(t, ts2.URL); got != want {
		t.Fatalf("recovered server answers %v rows, acked state had %v", got, want)
	}
	if got := st2.DB().Revision(); float64(got) != rev {
		t.Fatalf("recovered at revision %d, last ack was %v", got, rev)
	}
	if st2.Stats().ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing; the updates were not in the WAL")
	}

	// A torn tail — half an append from a crash mid-write — is dropped on
	// the next recovery without touching the acknowledged prefix.
	ts2.Close()
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, ts3, _ := durableServer(t, dir)
	if got := countA(t, ts3.URL); got != want {
		t.Fatalf("after torn tail: %v rows, want %v", got, want)
	}
	// And the store accepts new acknowledged writes from there.
	if code, out := postJSON(t, ts3.URL+"/update", `{"db":"g1","edges":"x a y"}`); code != http.StatusOK {
		t.Fatalf("post-recovery update: %d %v", code, out)
	}
	if got := countA(t, ts3.URL); got != want+1 {
		t.Fatalf("post-recovery update not visible: %v rows, want %v", got, want+1)
	}
}

func TestServerWALFailureWedgesWrites(t *testing.T) {
	dir := t.TempDir()
	_, ts, st := durableServer(t, dir)
	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"u a v"}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	want := countA(t, ts.URL)

	// Break the WAL out from under the server: the next append fails, the
	// batch must not be acknowledged or published.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"u a z"}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("update on broken WAL: %d %v, want 500", code, out)
	}
	if got := countA(t, ts.URL); got != want {
		t.Fatalf("unacknowledged batch visible to readers: %v rows, want %v", got, want)
	}
	// The entry is wedged: further writes are refused outright...
	code, out = postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"u a q"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("update on wedged entry: %d %v, want 503", code, out)
	}
	// ...while reads keep serving the last durable published state.
	if got := countA(t, ts.URL); got != want {
		t.Fatalf("wedged entry disturbed reads: %v rows, want %v", got, want)
	}
}

// A checkpoint that fails after the batch reached the WAL — its rename onto a
// non-empty directory fails, even for root — leaves a
// durable batch: /update acknowledges it with "checkpoint_error", publishes
// it, and keeps accepting writes, and the WAL recovers every such batch once
// the checkpoint file is back.
func TestServerCheckpointFailureAcksDurableBatch(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := durableServerWith(t, dir, graph.StoreOptions{CheckpointBytes: 1}) // every append checkpoints
	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"u a v"}`); code != http.StatusOK || out["checkpoint_error"] != nil {
		t.Fatalf("update with a working checkpoint: %d %v", code, out)
	}
	ckpt := filepath.Join(dir, "checkpoint.graph")
	if err := os.Rename(ckpt, ckpt+".orig"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(ckpt, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	want := countA(t, ts.URL)
	var rev float64
	for i, edges := range []string{"u a w", "w a x"} {
		code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"`+edges+`"}`)
		if code != http.StatusOK || out["checkpoint_error"] == nil {
			t.Fatalf("update %d under a failing checkpoint: %d %v; want 200 with checkpoint_error", i, code, out)
		}
		rev = out["revision"].(float64)
		if got := countA(t, ts.URL); got != want+float64(i+1) {
			t.Fatalf("update %d: the durable batch is not visible: %v rows, want %v", i, got, want+float64(i+1))
		}
	}
	if err := os.RemoveAll(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(ckpt+".orig", ckpt); err != nil {
		t.Fatal(err)
	}
	st, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db := st.DB()
	if float64(db.Revision()) != rev {
		t.Fatalf("recovered at revision %d, the last acknowledged batch was %v", db.Revision(), rev)
	}
	for _, e := range [][2]string{{"u", "w"}, {"w", "x"}} {
		from, ok1 := db.Lookup(e[0])
		to, ok2 := db.Lookup(e[1])
		if !ok1 || !ok2 || !slices.ContainsFunc(db.Out(from), func(g graph.Edge) bool { return g.Label == 'a' && g.To == to }) {
			t.Fatalf("recovery lost the acknowledged edge %s a %s", e[0], e[1])
		}
	}
}

func TestServerFollowerTailsLeader(t *testing.T) {
	dir := t.TempDir()
	_, lts, _ := durableServer(t, dir)
	if code, out := postJSON(t, lts.URL+"/update", `{"db":"g1","edges":"u a v"}`); code != http.StatusOK {
		t.Fatalf("leader update: %d %v", code, out)
	}

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

	if got := countA(t, fts.URL); got != 1 {
		t.Fatalf("follower recovered %v rows, want 1", got)
	}
	// The follower is read-only.
	if code, out := postJSON(t, fts.URL+"/update", `{"db":"g1","edges":"x a y"}`); code != http.StatusForbidden {
		t.Fatalf("follower accepted a write: %d %v", code, out)
	}
	// A leader batch surfaces within the poll cadence.
	if code, out := postJSON(t, lts.URL+"/update", `{"db":"g1","edges":"v a w\nw a u"}`); code != http.StatusOK {
		t.Fatalf("leader update: %d %v", code, out)
	}
	deadline := time.Now().Add(5 * time.Second)
	for countA(t, fts.URL) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: %v rows, want 3", countA(t, fts.URL))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerShutdownDrainsAndClosesStores drives server.run, the one exit path
// of leader and follower, in process: the context a SIGTERM would cancel is
// canceled while an /update is in flight. The listener closes, the request
// still completes and is acknowledged, run returns only after it did — with
// the follower tail joined and the store closed — and a reopen of the
// directory replays to the acknowledged revision.
func TestServerShutdownDrainsAndClosesStores(t *testing.T) {
	dir := t.TempDir()
	st, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	srv.addDB("g1", st.DB()).store = st
	fo, err := graph.OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	fe := srv.addDB("replica", fo.DB())
	fe.follower = fo
	srv.follow(fe, 2*time.Millisecond)

	entered, release := make(chan struct{}), make(chan struct{})
	h := srv.handler()
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/update" {
			close(entered)
			<-release
		}
		h.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- srv.run(ctx, serve(addr, gate), ln) }()

	type ack struct {
		code int
		out  map[string]any
		err  error
	}
	acked := make(chan ack, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/update", "application/json", strings.NewReader(`{"db":"g1","edges":"u a v\nv a w"}`))
		if err != nil {
			acked <- ack{err: err}
			return
		}
		defer resp.Body.Close()
		a := ack{code: resp.StatusCode}
		a.err = json.NewDecoder(resp.Body).Decode(&a.out)
		acked <- a
	}()

	<-entered
	cancel()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break // the shutdown has closed the listener
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts connections after the context was canceled")
		}
	}
	select {
	case err := <-stopped:
		t.Fatalf("run returned (%v) with a request still in flight", err)
	default:
	}
	close(release)
	a := <-acked
	if a.err != nil || a.code != http.StatusOK {
		t.Fatalf("the in-flight update did not complete: %d %v %v", a.code, a.out, a.err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("run: %v", err)
	}
	rev := st.DB().Revision()
	if err := st.Append(graph.Delta{}, rev, rev); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after shutdown = %v, want a closed WAL", err)
	}
	st2, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := float64(st2.DB().Revision()), a.out["revision"].(float64); got != want || want == 0 {
		t.Fatalf("reopened at revision %v, the acknowledged update was %v", got, want)
	}
}

// Command cxrpq-serve is a concurrent CXRPQ evaluation server over the
// prepared-query subsystem (cxrpq.Prepare / Plan.Bind / Session): an
// HTTP/JSON front-end with MVCC snapshot reads (queries and parked cursors
// run against an immutable published graph.Snapshot view with its forked
// session pool, so reads never block on /update), durable writes behind
// -data-dir (write-ahead log + checkpoints, fsync before ack, crash
// recovery on startup), incremental cache maintenance at publish time
// (an /update over known labels carries the database's atom store once per
// publish, each entry settled on its first read, instead of flushing it; see
// the server.go comment block), pull-based streaming evaluation with pagination, deadlines and
// ranked (shortest-witness-first) order, and a two-tier in-flight limiter
// that degrades to partial answers before it rejects with 429.
//
// Usage:
//
//	cxrpq-serve [-addr :8080] [-db name=path]... [-data-dir dir] [-follower]
//	            [-wal-sync-every 1] [-checkpoint-bytes 4194304] [-follower-poll-ms 100]
//	            [-inflight 64] [-shed-ms 100] [-sessions 128] [-pprof]
//
// Databases are the textual graph format (one "from label to" triple per
// line); requests may alternatively carry an inline graph. With -data-dir,
// each named database persists under <dir>/<name> (checkpoint.graph +
// wal.log): a fresh directory is seeded from the -db file and checkpointed,
// an existing one is recovered by checkpoint load + WAL replay and the -db
// path is ignored. /update acknowledges only after the WAL record is
// fsynced, so a kill -9 loses no acknowledged batch. -follower serves the
// store directories read-only instead: every store under -data-dir is
// recovered and then tailed (leader appends surface within the poll
// interval), and /update is refused with 403. SIGTERM and SIGINT stop either
// kind gracefully: requests in flight complete, then the stores are synced
// and closed. Quickstart:
//
//	cxrpq-serve -addr :8080 &
//	curl -s localhost:8080/query -d '{
//	  "graph": "u a v\nu a w",
//	  "query": "ans()\nu1 v1 : $x{a|b}\nu1 w1 : $x",
//	  "mode": "bool"
//	}'
//
// Paginated, deadline-bounded streaming against a named database:
//
//	curl -s localhost:8080/query -d '{"db":"g1","query":"ans(x, y)\nx y : a+","limit":100,"deadline_ms":50}'
//	# -> {"answers":[...100 rows...],"cursor":"<token>", ...}  (or "truncated":true when the 50ms ran out)
//	curl -s localhost:8080/query -d '{"cursor":"<token>","limit":100}'
//
// deadline_ms applies to every mode: a bool, check or explain that has no
// witness when it runs out answers false with "truncated":true.
//
// See internal/README.md for the endpoint reference and the server.go
// comment block for cursor, deadline, shedding and durability semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cxrpq/internal/graph"
)

type dbFlags []string

func (d *dbFlags) String() string     { return fmt.Sprint([]string(*d)) }
func (d *dbFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	inflight := flag.Int("inflight", 64, "soft in-flight cap: beyond it queries run degraded under the shed budget; beyond 2x requests get 429")
	shedMS := flag.Int("shed-ms", 100, "eval budget (ms) for requests admitted beyond the soft in-flight cap")
	sessions := flag.Int("sessions", 128, "pooled prepared plans per database")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "", "durability root: each named db persists under <dir>/<name> as WAL + checkpoints, recovered on startup")
	follower := flag.Bool("follower", false, "serve the stores under -data-dir read-only, tailing each WAL; /update is refused")
	walSync := flag.Int("wal-sync-every", 1, "fsync cadence in WAL appends: 1 syncs before every ack (crash-safe), n>1 group-commits (bounded loss), negative never syncs")
	ckptBytes := flag.Int64("checkpoint-bytes", 4<<20, "write a checkpoint and reset the WAL when it outgrows this size; negative disables")
	pollMS := flag.Int("follower-poll-ms", 100, "WAL poll interval (ms) in follower mode")
	var dbs dbFlags
	flag.Var(&dbs, "db", "named database as name=path (repeatable); with -data-dir the path only seeds a fresh store")
	flag.Parse()

	srv := newServer(serverOptions{
		maxInflight: *inflight, sessionCap: *sessions, pprof: *pprof,
		shedBudget: time.Duration(*shedMS) * time.Millisecond,
	})

	if *follower {
		if *dataDir == "" {
			log.Fatal("-follower requires -data-dir")
		}
		names, err := storeNames(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		for _, name := range names {
			fo, err := graph.OpenFollower(filepath.Join(*dataDir, name))
			if err != nil {
				log.Fatalf("recover follower %s: %v", name, err)
			}
			e := srv.addDB(name, fo.DB())
			e.follower = fo
			srv.follow(e, time.Duration(*pollMS)*time.Millisecond)
			log.Printf("tailing db %q: %d nodes, %d edges at revision %d (replayed %d records)",
				name, fo.DB().NumNodes(), fo.DB().NumEdges(), fo.DB().Revision(), fo.Replayed())
		}
		log.Printf("cxrpq-serve follower listening on %s (%d dbs)", *addr, len(names))
		listenAndRun(srv, *addr)
		return
	}

	for _, v := range dbs {
		name, path, err := parseDBFlag(v)
		if err != nil {
			log.Fatal(err)
		}
		if *dataDir != "" {
			st, err := graph.OpenStore(filepath.Join(*dataDir, name),
				graph.StoreOptions{SyncEvery: *walSync, CheckpointBytes: *ckptBytes})
			if err != nil {
				log.Fatalf("open store %s: %v", name, err)
			}
			db := st.DB()
			if db.Revision() == 0 && db.NumNodes() == 0 {
				// Fresh store: seed it from the -db file as one batch and
				// checkpoint, so durability covers the seed from revision 1.
				if err := seedStore(st, path); err != nil {
					log.Fatalf("seed %s from %s: %v", name, path, err)
				}
				log.Printf("seeded db %q from %s: %d nodes, %d edges", name, path, db.NumNodes(), db.NumEdges())
			} else {
				log.Printf("recovered db %q: %d nodes, %d edges at revision %d (replayed %d records)",
					name, db.NumNodes(), db.NumEdges(), db.Revision(), st.Stats().ReplayedRecords)
			}
			e := srv.addDB(name, db)
			e.store = st
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("open %s: %v", path, err)
		}
		db, err := graph.Read(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse %s: %v", path, err)
		}
		srv.addDB(name, db)
		log.Printf("loaded db %q: %d nodes, %d edges", name, db.NumNodes(), db.NumEdges())
	}

	log.Printf("cxrpq-serve listening on %s (%d dbs, inflight=%d)", *addr, len(dbs), *inflight)
	listenAndRun(srv, *addr)
}

// Connection timeouts of the listening server. There is no write timeout: a
// 50 000-row answer and a parked cursor are legitimate. shutdownGrace is how
// long a SIGTERM/SIGINT waits for the requests in flight before the stores are
// closed under them.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
	shutdownGrace     = 15 * time.Second
)

// listenAndRun is where leader and follower end up: serve on addr until
// SIGTERM or SIGINT, then leave by the one exit path (server.run).
func listenAndRun(srv *server, addr string) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		err = srv.run(ctx, serve(addr, srv.handler()), ln)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Print("cxrpq-serve stopped: in-flight requests drained, stores closed")
}

// run serves on ln until ctx is done or the listener fails, then shuts down:
// no new connection is accepted, the requests in flight complete (up to
// shutdownGrace), the follower tails stop, and every durable store is synced
// and closed — what a SIGKILL skips and recovery then has to replay.
func (s *server) run(ctx context.Context, hs *http.Server, ln net.Listener) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-served: // the listener failed: nothing to drain
	case <-ctx.Done():
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err = hs.Shutdown(grace)
		cancel()
		<-served // http.ErrServerClosed
	}
	return errors.Join(err, s.close())
}

// serve returns the HTTP server the leader and the follower listen with: a
// client that stalls in its request headers, or idles on a kept-alive
// connection, is dropped instead of holding a goroutine and a descriptor.
func serve(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// seedStore loads a textual graph file into a store's empty database as one
// insert batch and writes the first checkpoint.
func seedStore(st *graph.Store, path string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	adds, err := graph.ParseDeltaEdges(string(text))
	if err != nil {
		return err
	}
	if _, err := st.DB().ApplyDelta(graph.Delta{Add: adds}); err != nil {
		return err
	}
	return st.Checkpoint()
}

// storeNames lists the store directories under a durability root.
func storeNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		for _, f := range []string{"checkpoint.graph", "wal.log"} {
			if _, err := os.Stat(filepath.Join(dir, ent.Name(), f)); err == nil {
				names = append(names, ent.Name())
				break
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no store directories under %s", dir)
	}
	return names, nil
}

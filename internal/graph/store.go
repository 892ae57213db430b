package graph

// Store is the durability layer under one database: an append-only WAL of
// Delta batches (wal.go framing) plus periodic full checkpoints written
// with WriteFull. The layout of a store directory is
//
//	checkpoint.graph      last durable checkpoint (WriteFull format)
//	wal.log               delta records applied since that checkpoint
//	                      (wal.go: a version-2 log; a v1 one is replayed
//	                      and checkpointed away at open)
//
// Recovery protocol (Open): load the checkpoint if present (else start
// empty), scan the WAL, truncate a torn tail (a crash mid-append — that
// batch was never acknowledged), and replay every record whose window
// extends past the checkpoint revision. Replay is deterministic: ApplyDelta
// validates removals first and interns nodes in request order, so the
// rebuilt lineage reproduces the original revision numbers exactly.
//
// Write protocol (Append): the caller applies the batch to its live DB
// first (validation and revision assignment), then appends the framed
// record and fsyncs before acknowledging. A crash between apply and append
// loses only unacknowledged work. Checkpointing writes the current graph to
// a temp file, fsyncs, renames over checkpoint.graph, then truncates the
// WAL; records already covered by the checkpoint revision are skipped on
// replay, so a crash anywhere in that sequence recovers consistently.
//
// Side records (AppendSide/SideRecords, wal.go sentinel framing) let the
// application piggyback small opaque state on the same log — the serving
// layer persists parked ranked cursors this way. They do not participate in
// revision continuity and are discarded whenever a checkpoint truncates the
// WAL: side state must always be best-effort reconstructible.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	checkpointFile = "checkpoint.graph"
	walFile        = "wal.log"
)

// StoreOptions tunes durability cadence.
type StoreOptions struct {
	// SyncEvery is the fsync cadence in appended records: 1 (the default)
	// fsyncs every append before it is acknowledged — the crash-safety
	// contract. Larger values batch fsyncs (group commit across batches,
	// bounded-loss), negative never fsyncs (benchmarks).
	SyncEvery int
	// CheckpointBytes triggers an automatic checkpoint when the WAL grows
	// past this size. 0 means the 4MB default; negative disables automatic
	// checkpoints.
	CheckpointBytes int64
}

const defaultCheckpointBytes = 4 << 20

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = defaultCheckpointBytes
	}
	return o
}

// storeCounters are atomics so the /stats read path can observe them while
// the writer appends.
type storeCounters struct {
	walBytes    atomic.Int64
	records     atomic.Uint64
	sideRecords atomic.Uint64
	fsyncs      atomic.Uint64
	checkpoints atomic.Uint64
	replayed    atomic.Uint64
}

// StoreStats is a snapshot of the durability counters.
type StoreStats struct {
	WALBytes        int64  `json:"wal_bytes"`        // bytes of WAL since the last checkpoint
	Records         uint64 `json:"wal_records"`      // delta records appended this process lifetime
	SideRecords     uint64 `json:"wal_side_records"` // side records appended this process lifetime
	Fsyncs          uint64 `json:"wal_fsyncs"`       // fsyncs issued on the WAL
	Checkpoints     uint64 `json:"checkpoints"`      // checkpoints written this process lifetime
	ReplayedRecords uint64 `json:"replayed_records"` // WAL records replayed during recovery
}

// Store is the durable home of one database. Append/Checkpoint/Close follow
// the writer side of the DB contract (one mutator at a time) but are also
// serialized against AppendSide by an internal mutex, because side records
// originate on read paths (a cursor parking mid-pagination) that do not hold
// the application's write lock. Stats and SideRecords are safe concurrently.
type Store struct {
	dir  string
	db   *DB
	wal  *os.File
	opts StoreOptions

	mu        sync.Mutex // serializes Append/AppendSide/Checkpoint/Close
	sinceSync int
	buf       []byte
	sides     []walRecord // side records in the current WAL generation
	c         storeCounters
}

// OpenStore opens (or initializes) the store directory and recovers the
// database from checkpoint + WAL replay. A non-empty version-1 WAL is
// checkpointed before OpenStore returns, so every frame the store appends
// starts or continues a version-2 log; the v1 log's side records go with it,
// as at any checkpoint.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	db, valid, replayed, sides, v1, err := recoverDB(dir)
	if err != nil {
		return nil, err
	}
	s.db = db
	s.sides = sides
	s.c.replayed.Store(uint64(replayed))
	walPath := filepath.Join(dir, walFile)
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > valid {
		// Torn tail from a crashed append: drop it before reopening for
		// append, so the next record starts at a frame boundary.
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("graph: truncating torn wal tail: %w", err)
		}
	}
	s.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.c.walBytes.Store(valid)
	if v1 && valid > 0 {
		if err := s.checkpointLocked(); err != nil {
			s.wal.Close()
			return nil, fmt.Errorf("graph: checkpointing a version-1 wal: %w", err)
		}
	}
	return s, nil
}

// recoverDB loads checkpoint + WAL from dir and returns the recovered
// database, the valid WAL prefix length, the number of replayed delta
// records, the side records found in the WAL (in log order), and whether
// the WAL is a version-1 log. Side records are excluded from the
// revision-continuity checks.
func recoverDB(dir string) (*DB, int64, int, []walRecord, bool, error) {
	db := New()
	if f, err := os.Open(filepath.Join(dir, checkpointFile)); err == nil {
		db, err = func() (*DB, error) { defer f.Close(); return ReadFull(f) }()
		if err != nil {
			return nil, 0, 0, nil, false, fmt.Errorf("graph: loading checkpoint: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil, false, err
	}
	buf, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil, false, err
	}
	recs, valid, v1, err := parseWAL(buf)
	if err != nil {
		return nil, 0, 0, nil, false, err
	}
	replayed := 0
	var sides []walRecord
	for _, rec := range recs {
		if rec.Side {
			sides = append(sides, rec)
			continue
		}
		if rec.ToRev <= db.Revision() {
			continue // covered by the checkpoint
		}
		if rec.FromRev != db.Revision() {
			return nil, 0, 0, nil, false, fmt.Errorf("%w: record window (%d,%d] does not continue revision %d",
				ErrWALCorrupt, rec.FromRev, rec.ToRev, db.Revision())
		}
		if _, err := db.ApplyDelta(rec.Delta); err != nil {
			return nil, 0, 0, nil, false, fmt.Errorf("graph: wal replay: %w", err)
		}
		if db.Revision() != rec.ToRev {
			return nil, 0, 0, nil, false, fmt.Errorf("%w: replay reached revision %d, record declares %d",
				ErrWALCorrupt, db.Revision(), rec.ToRev)
		}
		replayed++
	}
	return db, int64(valid), replayed, sides, v1, nil
}

// DB returns the recovered database. The caller owns mutations on it and
// must pair every ApplyDelta with an Append before acknowledging.
func (s *Store) DB() *DB { return s.db }

// Append frames the already-applied batch (window (fromRev, toRev] on the
// store's DB) onto the WAL and fsyncs per the SyncEvery cadence, then
// checkpoints automatically when the WAL has outgrown CheckpointBytes. The
// batch is durable, and may be acknowledged, iff Append returns nil or a
// *CheckpointError.
func (s *Store) Append(delta Delta, fromRev, toRev uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = encodeWALRecord(s.frameStart(), walRecord{FromRev: fromRev, ToRev: toRev, Delta: delta})
	if err := s.writeLocked(); err != nil {
		return err
	}
	s.c.records.Add(1)
	if s.opts.CheckpointBytes > 0 && s.c.walBytes.Load() >= s.opts.CheckpointBytes {
		if err := s.checkpointLocked(); err != nil {
			return &CheckpointError{Err: err}
		}
	}
	return nil
}

// CheckpointError is Append's error when the batch is in the WAL, durable,
// and only the automatic checkpoint after it failed. Recovery replays every
// record the checkpoint on disk does not cover, whether the failure came
// before or after its rename, and the next Append past the threshold tries
// the checkpoint again.
type CheckpointError struct{ Err error }

func (e *CheckpointError) Error() string { return "graph: checkpoint: " + e.Err.Error() }

func (e *CheckpointError) Unwrap() error { return e.Err }

// AppendSide frames an opaque application side record onto the WAL under the
// same fsync cadence as Append. Side records survive crash recovery (see
// SideRecords) but not checkpoints — the WAL truncation discards them — so
// they must only carry state the application can afford to lose. Unlike
// Append, AppendSide is safe to call from read paths: the internal mutex
// serializes it against the writer.
func (s *Store) AppendSide(kind uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = encodeWALSideRecord(s.frameStart(), kind, blob)
	if err := s.writeLocked(); err != nil {
		return err
	}
	s.c.sideRecords.Add(1)
	s.sides = append(s.sides, walRecord{Side: true, Kind: kind, Blob: append([]byte(nil), blob...)})
	return nil
}

// SideRecords returns the blobs of every side record of the given kind in
// the current WAL generation (recovered at open plus appended since, in log
// order). A checkpoint empties the set.
func (s *Store) SideRecords(kind uint64) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	for _, rec := range s.sides {
		if rec.Kind == kind {
			out = append(out, rec.Blob)
		}
	}
	return out
}

// frameStart returns the write buffer emptied — but for the file header of a
// version-2 log when the WAL is empty: it goes out with the first frame, in
// one write.
func (s *Store) frameStart() []byte {
	if s.c.walBytes.Load() == 0 {
		return appendWALHeader(s.buf[:0])
	}
	return s.buf[:0]
}

// writeLocked flushes s.buf to the WAL and applies the fsync cadence.
func (s *Store) writeLocked() error {
	if _, err := s.wal.Write(s.buf); err != nil {
		return err
	}
	s.c.walBytes.Add(int64(len(s.buf)))
	s.sinceSync++
	if s.opts.SyncEvery > 0 && s.sinceSync >= s.opts.SyncEvery {
		if err := s.wal.Sync(); err != nil {
			return err
		}
		s.sinceSync = 0
		s.c.fsyncs.Add(1)
	}
	return nil
}

// Checkpoint writes the current graph as a durable checkpoint and resets
// the WAL. Crash-safe at every step: temp write + fsync + atomic rename,
// and the WAL is truncated only after the rename — replay skips records the
// checkpoint already covers. Side records in the WAL are discarded.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	tmp, err := os.CreateTemp(s.dir, checkpointFile+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.db.WriteFull(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, checkpointFile)); err != nil {
		return err
	}
	syncDir(s.dir)
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	s.c.walBytes.Store(0)
	s.c.checkpoints.Add(1)
	s.sides = nil
	return nil
}

// Stats returns a snapshot of the durability counters; safe concurrently
// with the writer.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		WALBytes:        s.c.walBytes.Load(),
		Records:         s.c.records.Load(),
		Fsyncs:          s.c.fsyncs.Load(),
		Checkpoints:     s.c.checkpoints.Load(),
		ReplayedRecords: s.c.replayed.Load(),
	}
}

// Close fsyncs and closes the WAL. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: rename durability on metadata-journaling filesystems
		d.Close()
	}
}

// Follower tails the WAL of a store owned by another process (a leader),
// maintaining a read-scaling replica: OpenFollower recovers the current
// state exactly like OpenStore (without taking ownership of the files), and
// each Poll applies the records the leader appended since. A torn tail is
// not an error for a follower — it is an append in progress; Poll simply
// stops before it and retries on the next cycle. When the leader
// checkpoints (the WAL shrinks under the follower's offset), Poll reloads
// from the new checkpoint; the DB identity then changes, which callers
// observe via DB().
type Follower struct {
	dir      string
	db       *DB
	off      int64
	v1       bool // the WAL read up to off is a version-1 log
	replayed atomic.Uint64
	reloads  atomic.Uint64
}

// OpenFollower opens a read-only view of a store directory. Side records in
// the leader's WAL are ignored: they carry leader-local state (e.g. parked
// cursors) that has no meaning on a replica.
func OpenFollower(dir string) (*Follower, error) {
	db, valid, replayed, _, v1, err := recoverDB(dir)
	if err != nil {
		return nil, err
	}
	f := &Follower{dir: dir, db: db, off: valid, v1: v1}
	f.replayed.Store(uint64(replayed))
	return f, nil
}

// DB returns the follower's current database. The pointer changes when a
// leader checkpoint forces a reload; callers should re-read it after every
// Poll.
func (f *Follower) DB() *DB { return f.db }

// Replayed returns the total number of WAL records applied (initial
// recovery plus tailing), and Reloads the number of checkpoint-forced
// reloads. Safe concurrently with Poll per the usual single-writer rule.
func (f *Follower) Replayed() uint64 { return f.replayed.Load() }
func (f *Follower) Reloads() uint64  { return f.reloads.Load() }

// Poll applies every complete record the leader appended since the last
// Poll and returns how many were applied. Poll mutates the follower's DB:
// it must not run concurrently with readers of DB() — the serving layer
// publishes snapshots, exactly like a leader's writer goroutine.
func (f *Follower) Poll() (int, error) {
	fi, err := os.Stat(filepath.Join(f.dir, walFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	if fi.Size() < f.off {
		// The leader checkpointed and reset the WAL: our offset is in a
		// discarded generation.
		return f.reload()
	}
	if fi.Size() == f.off {
		return 0, nil
	}
	wal, err := os.Open(filepath.Join(f.dir, walFile))
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	buf := make([]byte, fi.Size()-f.off)
	n, err := wal.ReadAt(buf, f.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, err
	}
	var recs []walRecord
	var valid int
	if f.off == 0 { // from the file header
		recs, valid, f.v1, err = parseWAL(buf[:n])
	} else {
		recs, valid, err = parseFrames(buf[:n], f.v1)
	}
	if err != nil {
		// Misaligned tail: the leader checkpointed and the new WAL already
		// grew past our stale offset, so we read from mid-frame. A reload
		// from the checkpoint resolves it (genuine corruption resurfaces
		// there as an error).
		return f.reload()
	}
	applied := 0
	for _, rec := range recs {
		if rec.Side {
			continue // leader-local side state; not part of the lineage
		}
		if rec.ToRev <= f.db.Revision() {
			continue
		}
		if rec.FromRev != f.db.Revision() {
			return f.reload() // revision gap: same stale-offset cause
		}
		if _, err := f.db.ApplyDelta(rec.Delta); err != nil {
			return applied, fmt.Errorf("graph: follower replay: %w", err)
		}
		applied++
		f.replayed.Add(1)
	}
	f.off += int64(valid)
	return applied, nil
}

// reload re-recovers from checkpoint + WAL. If the on-disk pair is
// transiently older than the follower's state (we raced the leader's
// checkpoint rename), the current state is kept and the next Poll retries.
func (f *Follower) reload() (int, error) {
	db, valid, replayed, _, v1, err := recoverDB(f.dir)
	if err != nil || db.Revision() < f.db.Revision() {
		return 0, err
	}
	applied := int(db.Revision() - f.db.Revision())
	f.db, f.off, f.v1 = db, valid, v1
	f.replayed.Add(uint64(replayed))
	f.reloads.Add(1)
	return applied, nil
}

package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// equalDB asserts two databases agree on names (in id order), the edge
// multiset per node (order-insensitive: checkpoint reload regroups the
// incoming-edge interleaving by source node), the alphabet, and the
// revision counter.
func equalDB(t *testing.T, a, b *DB) {
	t.Helper()
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		t.Fatalf("names differ:\n%v\n%v", a.Names(), b.Names())
	}
	for u := 0; u < a.NumNodes(); u++ {
		if !equalEdgeSet(a.Out(u), b.Out(u)) {
			t.Fatalf("out(%s) differs: %v vs %v", a.Name(u), a.Out(u), b.Out(u))
		}
		if !equalEdgeSet(a.In(u), b.In(u)) {
			t.Fatalf("in(%s) differs: %v vs %v", a.Name(u), a.In(u), b.In(u))
		}
	}
	if string(a.Alphabet()) != string(b.Alphabet()) {
		t.Fatalf("alphabet differs: %q vs %q", a.Alphabet(), b.Alphabet())
	}
	if a.Revision() != b.Revision() {
		t.Fatalf("revision differs: %d vs %d", a.Revision(), b.Revision())
	}
}

func equalEdgeSet(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(e Edge) string { return fmt.Sprintf("%d|%c|%d", e.From, e.Label, e.To) }
	cnt := map[string]int{}
	for _, e := range a {
		cnt[key(e)]++
	}
	for _, e := range b {
		if cnt[key(e)]--; cnt[key(e)] < 0 {
			return false
		}
	}
	return true
}

// randomDB builds a database exercising the serialization corner cases:
// isolated nodes, anonymous "#N" node names (which plain Read would drop as
// comments when they start an edge line), parallel edges, and multi-rune
// labels from a small alphabet.
func randomDB(rng *rand.Rand) *DB {
	d := New()
	n := 2 + rng.Intn(12)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			d.AddNode()
		default:
			d.Node(fmt.Sprintf("v%d", i))
		}
	}
	labels := []rune("abc")
	for i := rng.Intn(4 * n); i > 0; i-- {
		d.AddEdge(rng.Intn(d.NumNodes()), labels[rng.Intn(len(labels))], rng.Intn(d.NumNodes()))
	}
	return d
}

// Satellite coverage: the WriteFull checkpoint format round-trips names,
// edges, alphabet and revision exactly — including isolated nodes and
// anonymous '#'-prefixed names that the plain Write/Read edge format cannot
// represent.
func TestWriteFullRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDB(rng)
		var buf bytes.Buffer
		if err := d.WriteFull(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFull(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		equalDB(t, d, got)
	}
}

// TestCheckpointFlipRefused is the regression of a checkpoint that loaded
// short: a 2-edge graph checkpointed in the version-1 format, its first edge
// line's first byte turned into '#', loaded without an error as a graph of
// one edge, the line read as a comment. A version-2 checkpoint refuses that
// file — and one with its trailer cut off — while the file as written loads
// whole.
func TestCheckpointFlipRefused(t *testing.T) {
	d := MustParse("u a v\nv b w\n")
	var buf bytes.Buffer
	if err := d.WriteFull(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if got, err := ReadFull(bytes.NewReader(full)); err != nil || got.NumEdges() != 2 {
		t.Fatalf("the checkpoint as written: %v", err)
	}
	edge := bytes.Index(full, []byte("\nu a v\n")) + 1
	flipped := bytes.Clone(full)
	flipped[edge] = '#'
	if got, err := ReadFull(bytes.NewReader(flipped)); err == nil {
		t.Fatalf("a checkpoint with its first edge line commented out loads with %d of 2 edges", got.NumEdges())
	}
	cut := full[:bytes.LastIndexByte(full[:len(full)-1], '\n')+1]
	if got, err := ReadFull(bytes.NewReader(cut)); err == nil {
		t.Fatalf("a checkpoint without its trailer loads with %d edges", got.NumEdges())
	}
}

// TestCheckpointOtherFormatsRefused: a checkpoint is read only in the
// version-2 format WriteFull writes. The case that loaded short — a 3-edge
// checkpoint with its header's "v2" turned into "v3" and its trailer and last
// edge line lost, read whole and unchecked as 2 edges at revision 7 — a
// "#cxrpq v1" checkpoint and a plain edge list are each refused by ReadFull,
// and by OpenStore and OpenFollower on a directory holding it as its
// checkpoint, which is left as it was.
func TestCheckpointOtherFormatsRefused(t *testing.T) {
	d := MustParse("u a v\nv b w\nw c x\n")
	d.forceRevision(7)
	var buf bytes.Buffer
	if err := d.WriteFull(&buf); err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Replace(buf.Bytes(), []byte("#cxrpq v2 "), []byte("#cxrpq v3 "), 1)
	damaged = damaged[:bytes.Index(damaged, []byte("w c x\n"))]
	for _, tc := range []struct{ name, file string }{
		{"v3 header, tail lost", string(damaged)},
		{"version 1", "#cxrpq v1 rev=7\n#node u\n#node v\n#node w\nu a v\nv b w\n"},
		{"plain edge list", "u a v\nv b w\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := ReadFull(strings.NewReader(tc.file)); err == nil {
				t.Fatalf("ReadFull loads %d edges at revision %d", got.NumEdges(), got.Revision())
			}
			dir := t.TempDir()
			path := filepath.Join(dir, checkpointFile)
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			refused(t, dir, path, nil)
		})
	}
}

// refused asserts that OpenStore and OpenFollower on dir fail — with want,
// when it is not nil — and leave the file at path as it was.
func refused(t *testing.T, dir, path string, want error) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := OpenStore(dir, StoreOptions{}); err == nil || want != nil && !errors.Is(err, want) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("OpenStore = %v, want a refusal (%v)", err, want)
	}
	if _, err := OpenFollower(dir); err == nil || want != nil && !errors.Is(err, want) {
		t.Fatalf("OpenFollower = %v, want a refusal (%v)", err, want)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused file was changed: %d bytes, was %d (%v)", len(after), len(before), err)
	}
}

// The plain Write format round-trips the edge multiset for ordinary names
// (its documented contract); isolated nodes are out of scope for it.
func TestWriteRoundTripEdges(t *testing.T) {
	d := MustParse("u a v\nu a v\nv b w\n")
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != d.NumEdges() || got.NumNodes() != d.NumNodes() {
		t.Fatalf("Write/Read drifted: %d/%d nodes, %d/%d edges",
			got.NumNodes(), d.NumNodes(), got.NumEdges(), d.NumEdges())
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []walRecord{
		{FromRev: 0, ToRev: 7, Delta: Delta{Add: []DeltaEdge{{From: "u", Label: 'a', To: "v"}}}},
		{FromRev: 7, ToRev: 9, Delta: Delta{
			Add: []DeltaEdge{{From: "#2", Label: '∂', To: "x y"}}, // names are opaque bytes here
			Del: []DeltaEdge{{From: "u", Label: 'a', To: "v"}},
		}},
		{FromRev: 9, ToRev: 9, Delta: Delta{}},
	}
	buf := encodeWAL(recs)
	got, valid, err := parseWAL(buf)
	if err != nil {
		t.Fatal(err)
	}
	if valid != len(buf) {
		t.Fatalf("valid prefix %d != %d", valid, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].FromRev != recs[i].FromRev || got[i].ToRev != recs[i].ToRev ||
			!reflect.DeepEqual(append([]DeltaEdge{}, got[i].Delta.Add...), append([]DeltaEdge{}, recs[i].Delta.Add...)) ||
			!reflect.DeepEqual(append([]DeltaEdge{}, got[i].Delta.Del...), append([]DeltaEdge{}, recs[i].Delta.Del...)) {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, got[i], recs[i])
		}
	}
}

func storeDelta(t *testing.T, s *Store, delta Delta) {
	t.Helper()
	from := s.DB().Revision()
	if _, err := s.DB().ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(delta, from, s.DB().Revision()); err != nil {
		t.Fatal(err)
	}
}

func add(from string, to string) Delta {
	return Delta{Add: []DeltaEdge{{From: from, Label: 'a', To: to}}}
}

// Crash recovery drops a torn tail record (the append that never finished
// was never acknowledged) and keeps everything before it.
func TestStoreRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeDelta(t, s, add("u", "v"))
	storeDelta(t, s, add("v", "w"))
	want := s.DB().Revision()
	storeDelta(t, s, add("w", "x"))
	// Crash mid-append of the third record: chop bytes off the WAL tail.
	// The store is abandoned without Close, like a killed process.
	walPath := filepath.Join(dir, walFile)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.DB().Revision(); got != want {
		t.Fatalf("recovered revision %d, want %d (torn record dropped)", got, want)
	}
	if _, ok := s2.DB().Lookup("x"); ok {
		t.Fatal("torn record leaked into recovery")
	}
	if st := s2.Stats(); st.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2", st.ReplayedRecords)
	}
	// The tail was physically truncated, so appends resume on a frame
	// boundary and a further recovery sees them.
	storeDelta(t, s2, add("w", "y"))
	s3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := s3.DB().Lookup("y"); !ok {
		t.Fatal("append after torn-tail recovery lost")
	}
}

// A CRC failure in the interior of the log (valid frames after it) is
// corruption, not a torn tail: recovery must refuse rather than silently
// resurrect a partial history.
func TestStoreRejectsInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeDelta(t, s, add("u", "v"))
	storeDelta(t, s, add("v", "w"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[walHeaderLen+frameHeader+1] ^= 0xff // a payload byte of the first record
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("OpenStore on corrupt interior = %v, want ErrWALCorrupt", err)
	}
}

// Checkpoint + replay must reproduce the live database exactly, across
// random mutation batches (including removals and fresh nodes) and store
// reopens at arbitrary points — compared against an in-memory twin that
// applies the same deltas without any persistence.
func TestStoreCheckpointReplayTwin(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		// Tiny checkpoint threshold: force frequent checkpoint+truncate.
		s, err := OpenStore(dir, StoreOptions{CheckpointBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		twin := New()
		for step := 0; step < 40; step++ {
			var delta Delta
			for i := 0; i <= rng.Intn(3); i++ {
				delta.Add = append(delta.Add, DeltaEdge{
					From:  fmt.Sprintf("n%d", rng.Intn(10)),
					Label: rune('a' + rng.Intn(2)),
					To:    fmt.Sprintf("n%d", rng.Intn(10)),
				})
			}
			// Occasionally remove an edge that exists on the twin.
			if twin.NumEdges() > 0 && rng.Intn(3) == 0 {
				u := rng.Intn(twin.NumNodes())
				if es := twin.Out(u); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					delta.Del = append(delta.Del, DeltaEdge{
						From: twin.Name(e.From), Label: e.Label, To: twin.Name(e.To)})
				}
			}
			if _, err := twin.ApplyDelta(delta); err != nil {
				t.Fatalf("seed %d step %d: twin: %v", seed, step, err)
			}
			storeDelta(t, s, delta)
			if rng.Intn(8) == 0 { // crash: reopen without Close
				if s, err = OpenStore(dir, StoreOptions{CheckpointBytes: 256}); err != nil {
					t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
				}
			}
		}
		s2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Revision counters survive checkpoints (forceRevision), so the
		// twin and the recovered store agree on the full lineage.
		equalDB(t, twin, s2.DB())
		s2.Close()
	}
}

func TestFollowerTailsLeader(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeDelta(t, s, add("u", "v"))
	f, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	equalDB(t, s.DB(), f.DB())
	storeDelta(t, s, add("v", "w"))
	storeDelta(t, s, add("w", "x"))
	if n, err := f.Poll(); err != nil || n != 2 {
		t.Fatalf("Poll = %d, %v; want 2 records", n, err)
	}
	equalDB(t, s.DB(), f.DB())
	if n, err := f.Poll(); err != nil || n != 0 {
		t.Fatalf("idle Poll = %d, %v; want 0", n, err)
	}
	// Leader checkpoints (WAL truncates under the follower's offset), then
	// keeps writing: the follower reloads and catches up.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	storeDelta(t, s, add("x", "y"))
	for i := 0; i < 3; i++ { // reload may take an extra poll cycle
		if _, err := f.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if f.DB().Revision() != s.DB().Revision() {
		t.Fatalf("follower at revision %d, leader at %d", f.DB().Revision(), s.DB().Revision())
	}
	equalDB(t, s.DB(), f.DB())
	if f.Reloads() == 0 {
		t.Fatal("follower never took the checkpoint-reload path")
	}
}

// TestWALLengthFlipRefused: three acknowledged batches, one bit flipped in
// the first frame's length. Read as a torn tail, it would open a store
// holding none of the three edges after truncating the log to nothing. The
// frame header's own check makes it corruption: the open fails and the log
// is left as it was.
func TestWALLengthFlipRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeDelta(t, s, add("u", "v"))
	storeDelta(t, s, add("v", "w"))
	storeDelta(t, s, add("w", "x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:walHeaderLen]) != walHeader {
		t.Fatalf("a new store wrote no version-2 header: %q", buf[:walHeaderLen])
	}
	buf[walHeaderLen+1] ^= 1 // the first frame's length
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if !errors.Is(err, ErrWALCorrupt) {
		n := -1
		if s2 != nil {
			n = s2.DB().NumEdges()
		}
		t.Fatalf("OpenStore after a length flip = %v holding %d of 3 edges, want ErrWALCorrupt", err, n)
	}
	if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, buf) {
		t.Fatalf("the refused log was changed: %d bytes, was %d (%v)", len(after), len(buf), err)
	}
}

// twoRecordLog returns the records of two one-edge batches and their
// version-2 log.
func twoRecordLog(t *testing.T) ([]walRecord, []byte) {
	t.Helper()
	db := New()
	var recs []walRecord
	for _, d := range []Delta{add("u", "v"), add("v", "w")} {
		from := db.Revision()
		if _, err := db.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, walRecord{FromRev: from, ToRev: db.Revision(), Delta: d})
	}
	return recs, encodeWAL(recs)
}

// logsRefused writes each log as a store's only file and checks that
// OpenStore and OpenFollower refuse it with ErrWALCorrupt, leaving it as it
// was.
func logsRefused(t *testing.T, logs map[string][]byte) {
	t.Helper()
	for name, log := range logs {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, walFile)
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			refused(t, dir, path, ErrWALCorrupt)
		})
	}
}

// TestWALVersion1Refused: a log is read only in the version-2 format the
// store writes. A log framed as version 1 wrote it (no file header, 8-byte
// frame headers) and one whose "CXWL" header says version 1 are each
// refused with ErrWALCorrupt by OpenStore and OpenFollower, and left as
// they were.
func TestWALVersion1Refused(t *testing.T) {
	recs, log := twoRecordLog(t)
	var v1 []byte
	for _, r := range recs {
		payload := encodeWALRecord(nil, r)[frameHeader:]
		v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(payload)))
		v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(payload))
		v1 = append(v1, payload...)
	}
	logsRefused(t, map[string][]byte{
		"version-1 frames": v1,
		"version 1":        append([]byte("CXWL\x01\x00\x00\x00"), log[walHeaderLen:]...),
	})
}

// TestWALOtherFormatsRefused: a "CXWL" log of version 3 and one with a
// magic byte changed are refused like a version-1 log.
func TestWALOtherFormatsRefused(t *testing.T) {
	_, log := twoRecordLog(t)
	logsRefused(t, map[string][]byte{
		"version 3":  append([]byte("CXWL\x03\x00\x00\x00"), log[walHeaderLen:]...),
		"magic byte": append([]byte("CXWM"), log[len("CXWL"):]...),
	})
}

// TestStoreSideRecords: a version-2 log holding a side frame as servers
// once wrote between batches (fromRev 2^64-1, a kind, a blob) is refused
// with ErrWALCorrupt by OpenStore and OpenFollower, and left as it was.
// The side frame's blob reads as two empty edge lists, so it decodes like
// any record, and its window (2^64-1, 1] runs backwards: skipped as covered
// by the checkpoint, it would open.
func TestStoreSideRecords(t *testing.T) {
	recs, _ := twoRecordLog(t)
	side := append(binary.AppendUvarint(nil, math.MaxUint64), 1)
	side = appendFrame(encodeWAL(recs[:1]), append(side, 0, 0))
	side = encodeWALRecord(side, recs[1])
	logsRefused(t, map[string][]byte{"side frame": side})
}

// TestWALDeclaredRevisionChecked: a record whose batch does not reach the
// revision it declares is corruption, for OpenStore and for a follower's
// Poll alike; the log is left as it was.
func TestWALDeclaredRevisionChecked(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeDelta(t, s, add("u", "v"))
	from := s.DB().Revision()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFile)
	w, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One edge between known nodes advances the revision by one, not five.
	if _, err := w.Write(encodeWALRecord(nil, walRecord{FromRev: from, ToRev: from + 5, Delta: add("v", "u")})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Poll(); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Poll = %d, %v at revision %d; want ErrWALCorrupt", n, err, f.DB().Revision())
	}
	refused(t, dir, path, ErrWALCorrupt)
}

package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
)

// FuzzGraphRead holds the graph text formats to each other on arbitrary
// text: Parse and ParseDeltaEdges never panic and accept the same edge
// lines; for an accepted input, Write re-parses to the same named nodes and
// the same edge multiset, and ReadFull of WriteFull gives back the names in
// id order, the edges and the revision.
func FuzzGraphRead(f *testing.F) {
	for _, s := range []string{
		"",
		"\n\n# a comment\n   \nu a v\n#\n",
		"u a #v\n#v b u\nw c #v\n", // '#'-prefixed targets; the second line is a comment
		"u a v\r\nv b w\r\n\r\n",
		"u ab v\n",                            // a multi-rune label is refused
		"u é v\nv 😀 w\n",                      // single-rune labels of several bytes
		"u\u0085a\u0085v\nx\u00a0b y\u00a0\n", // NEL and NBSP separate fields
		"u a v\nu a v\nv a u\n",               // a multigraph
		"u a\n",
		"#node u\nu a v\n#cxrpq v1 rev=9\n",
		// A line past bufio's default 64 KiB token: Read refused it while
		// ParseDeltaEdges and ReadFull took it.
		"u a " + strings.Repeat("v", 1<<16) + "\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(s)
		delta, derr := ParseDeltaEdges(s)
		if (err == nil) != (derr == nil) {
			t.Fatalf("%q: Parse says %v, ParseDeltaEdges %v", s, err, derr)
		}
		if err != nil {
			return
		}
		want := edgeLines(d)
		var got []string
		for _, e := range delta {
			got = append(got, fmt.Sprintf("%q %q %q", e.From, e.Label, e.To))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%q: ParseDeltaEdges read %v, Parse %v", s, got, want)
		}

		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(buf.String())
		if err != nil {
			t.Fatalf("%q writes as %q, which does not parse: %v", s, buf.String(), err)
		}
		if got := edgeLines(back); !slices.Equal(got, want) {
			t.Fatalf("%q writes as %q, which re-parses to the edges %v, not %v", s, buf.String(), got, want)
		}
		if got, want := linkedNames(back), linkedNames(d); !slices.Equal(got, want) {
			t.Fatalf("%q writes as %q, which re-parses to the nodes %v, not %v", s, buf.String(), got, want)
		}

		buf.Reset()
		if err := d.WriteFull(&buf); err != nil {
			t.Fatal(err)
		}
		full, err := ReadFull(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%q checkpoints as %q, which does not load: %v", s, buf.String(), err)
		}
		if !slices.Equal(full.Names(), d.Names()) || !slices.Equal(edgeLines(full), want) || full.Revision() != d.Revision() {
			t.Fatalf("%q checkpoints as %q, which loads as nodes %v, edges %v, revision %d; want %v, %v, %d",
				s, buf.String(), full.Names(), edgeLines(full), full.Revision(), d.Names(), want, d.Revision())
		}
	})
}

// edgeLines is d's edge multiset by node name, sorted.
func edgeLines(d *DB) []string {
	var out []string
	for u := 0; u < d.NumNodes(); u++ {
		for _, e := range d.Out(u) {
			out = append(out, fmt.Sprintf("%q %q %q", d.Name(e.From), e.Label, d.Name(e.To)))
		}
	}
	slices.Sort(out)
	return out
}

// linkedNames is the sorted names of d's nodes with an edge.
func linkedNames(d *DB) []string {
	var out []string
	for u := 0; u < d.NumNodes(); u++ {
		if len(d.Out(u)) > 0 || len(d.In(u)) > 0 {
			out = append(out, d.Name(u))
		}
	}
	slices.Sort(out)
	return out
}

// FuzzWALParse holds the write-ahead log decoder to its encoder on arbitrary
// bytes: parseWAL never panics and reports a valid prefix within the input,
// which the returned records re-encode to byte for byte (so a frame with a
// uvarint longer than its shortest form, or a label past 32 bits, is
// corrupt even under a matching CRC: no encoder writes one); every cut of that
// prefix parses without error to a prefix of its records; and one flipped
// byte in the CRC or payload of any frame but the last is corruption, not a
// torn tail. Input that frames no record is turned into a log of records
// read off its bytes (walFromBytes), so the properties of a valid log are
// held to more than the seeds.
func FuzzWALParse(f *testing.F) {
	log := encodeWAL([]walRecord{
		{FromRev: 0, ToRev: 1, Delta: Delta{Add: []DeltaEdge{{From: "u", Label: 'a', To: "v"}, {From: "v", Label: 'é', To: "w"}}}},
		{Side: true, Kind: 1, Blob: []byte("cursor")},
		{FromRev: 1, ToRev: 3, Delta: Delta{Add: []DeltaEdge{{From: "w", Label: 'b', To: "u"}}, Del: []DeltaEdge{{From: "u", Label: 'a', To: "v"}}}},
		{Side: true, Kind: 2},
	})
	interior := bytes.Clone(log)
	interior[12] ^= 1 // in the first frame's payload
	// frame frames payload with its CRC, as the encoder would.
	frame := func(payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		return append(b, payload...)
	}
	for _, b := range [][]byte{
		nil, log, log[:len(log)-3], log[:5], interior, {0, 0, 0, 0, 0, 0, 0, 0}, []byte("\x07a\x83bc\x10\xffdef"),
		frame(0x80, 0x00, 1, 0, 0),                            // fromRev 0 in two bytes: no encoder writes it
		frame(0, 1, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0), // a label of 2^32
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, valid, err := parseWAL(buf)
		if valid < 0 || valid > len(buf) || err != nil && !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("%q: valid prefix %d of %d bytes, error %v", buf, valid, len(buf), err)
		}
		if valid == 0 && len(buf) > 0 {
			buf = encodeWAL(walFromBytes(buf))
			if recs, valid, err = parseWAL(buf); err != nil || valid != len(buf) {
				t.Fatalf("the log %q parses to %d of its bytes: %v", buf, valid, err)
			}
		}
		log := buf[:valid]
		if enc := encodeWAL(recs); !bytes.Equal(enc, log) {
			t.Fatalf("%q: the records of its valid prefix %q encode as %q", buf, log, enc)
		}
		ends := make([]int, len(recs)) // where each frame ends
		for i := range recs {
			ends[i] = len(encodeWAL(recs[:i+1]))
		}
		step := max(1, len(log)/256) // the checks below are quadratic
		for cut := 0; cut <= len(log); cut += step {
			got, n, err := parseWAL(log[:cut])
			k := 0 // the frames that end within the cut
			for k < len(ends) && ends[k] <= cut {
				k++
			}
			if err != nil || len(got) != k || !bytes.Equal(encodeWAL(got), log[:n]) || k > 0 && n != ends[k-1] {
				t.Fatalf("%q cut at %d: %d records in %d bytes (%v), want the first %d", log, cut, len(got), n, err, k)
			}
		}
		for i := 0; i+1 < len(recs); i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			for at := start + 4; at < ends[i]; at += step {
				flipped := bytes.Clone(log)
				flipped[at] ^= 0x41
				if _, _, err := parseWAL(flipped); !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("%q with byte %d of frame %d flipped: %v, want ErrWALCorrupt", log, at-start, i, err)
				}
			}
		}
	})
}

// encodeWAL is the log of recs.
func encodeWAL(recs []walRecord) []byte {
	var b []byte
	for _, r := range recs {
		if r.Side {
			b = encodeWALSideRecord(b, r.Kind, r.Blob)
		} else {
			b = encodeWALRecord(b, r)
		}
	}
	return b
}

// walFromBytes reads records off arbitrary bytes: a byte c opens a record
// of the c%8 bytes after it — a side record of kind c>>4 with them as its
// blob when c&8 is set, else a delta record with an edge per byte, its
// names and label cut from the record's bytes.
func walFromBytes(b []byte) []walRecord {
	var recs []walRecord
	rev := uint64(0)
	for len(b) > 0 {
		n := min(int(b[0]%8), len(b)-1)
		body := b[1 : 1+n]
		if b[0]&8 != 0 {
			recs = append(recs, walRecord{Side: true, Kind: uint64(b[0] >> 4), Blob: body})
		} else {
			rec := walRecord{FromRev: rev, ToRev: rev + 1 + uint64(n)}
			for i, c := range body {
				e := DeltaEdge{From: string(body[:i]), Label: rune(c) << (c % 24), To: string(body[i:])}
				if c&1 == 0 {
					rec.Delta.Add = append(rec.Delta.Add, e)
				} else {
					rec.Delta.Del = append(rec.Delta.Del, e)
				}
			}
			recs, rev = append(recs, rec), rec.ToRev
		}
		b = b[1+n:]
	}
	return recs
}

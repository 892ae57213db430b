package graph

// Write-ahead log encoding: the durable on-disk form of the per-revision
// mutation log. One record frames one applied Delta batch together with its
// revision window, so replay reproduces the exact lineage the in-memory
// deltaLog describes:
//
//	log     := "CXWL" version(uint32 LE = 2) frame*
//	frame   := length(uint32 LE) crc(uint32 LE) hcrc(uint32 LE) payload
//	payload := fromRev(uvarint) toRev(uvarint) edges(Add) edges(Del)
//	edges   := count(uvarint) { len(from) from len(to) to label(uvarint) }*
//
// crc is IEEE CRC-32 over the payload and hcrc over the 8 bytes before it,
// so the length is checked before it is believed. Recovery distinguishes a
// torn tail — a crash mid-append, truncated and forgotten: the batch was
// never acknowledged — from corruption, a hard error. A log is torn only
// where it ends short of a whole file header or frame: a strict prefix of
// the file header, a partial frame header, a frame header with nothing after
// it, or a header that checks and a short payload. Any other failure — other
// first bytes than the version-2 file header, a frame header that fails its
// check with bytes after it, a payload that fails its CRC or does not decode
// — is ErrWALCorrupt.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// walRecord is one framed Delta batch: applying Delta to the graph at
// revision FromRev yields revision ToRev.
type walRecord struct {
	FromRev, ToRev uint64
	Delta          Delta
}

// maxWALRecord bounds a single record frame; a declared length beyond it is
// treated as corruption rather than an allocation request.
const maxWALRecord = 1 << 30

// ErrWALCorrupt reports a log that is not a version-2 log, or that fails a
// check short of its end — unlike a torn tail, it cannot be explained by a
// crashed append.
var ErrWALCorrupt = errors.New("graph: wal corrupt")

const (
	walHeader    = "CXWL\x02\x00\x00\x00" // the magic, then the version, 2, as a uint32 LE
	walHeaderLen = len(walHeader)
	frameHeader  = 12
)

// appendFrame appends payload framed: its length, its CRC and the header's.
func appendFrame(b, payload []byte) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[at:at+8]))
	return append(b, payload...)
}

func appendEdges(b []byte, edges []DeltaEdge) []byte {
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(len(e.From)))
		b = append(b, e.From...)
		b = binary.AppendUvarint(b, uint64(len(e.To)))
		b = append(b, e.To...)
		b = binary.AppendUvarint(b, uint64(uint32(e.Label)))
	}
	return b
}

// encodeWALRecord appends the full frame (header + payload) for rec to b.
func encodeWALRecord(b []byte, rec walRecord) []byte {
	payload := binary.AppendUvarint(nil, rec.FromRev)
	payload = binary.AppendUvarint(payload, rec.ToRev)
	payload = appendEdges(payload, rec.Delta.Add)
	payload = appendEdges(payload, rec.Delta.Del)
	return appendFrame(b, payload)
}

type walDecoder struct {
	buf []byte
	off int
}

// uvarint decodes the next uvarint, which must be in the shortest form — the
// one the encoder writes — so that a log re-encodes to its own bytes.
func (d *walDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || n > 1 && d.buf[d.off+n-1] == 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrWALCorrupt)
	}
	d.off += n
	return v, nil
}

func (d *walDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.off) {
		return "", fmt.Errorf("%w: string overruns payload", ErrWALCorrupt)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *walDecoder) edges() ([]DeltaEdge, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.off) { // every edge takes ≥ 3 bytes
		return nil, fmt.Errorf("%w: edge count overruns payload", ErrWALCorrupt)
	}
	out := make([]DeltaEdge, 0, n)
	for i := uint64(0); i < n; i++ {
		var e DeltaEdge
		if e.From, err = d.str(); err != nil {
			return nil, err
		}
		if e.To, err = d.str(); err != nil {
			return nil, err
		}
		lbl, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if lbl > math.MaxUint32 {
			return nil, fmt.Errorf("%w: label %d overruns 32 bits", ErrWALCorrupt, lbl)
		}
		e.Label = rune(uint32(lbl))
		out = append(out, e)
	}
	return out, nil
}

func decodeWALPayload(payload []byte) (walRecord, error) {
	d := &walDecoder{buf: payload}
	var rec walRecord
	var err error
	if rec.FromRev, err = d.uvarint(); err != nil {
		return rec, err
	}
	if rec.ToRev, err = d.uvarint(); err != nil {
		return rec, err
	}
	if rec.ToRev < rec.FromRev {
		return rec, fmt.Errorf("%w: record window (%d,%d] runs backwards", ErrWALCorrupt, rec.FromRev, rec.ToRev)
	}
	if rec.Delta.Add, err = d.edges(); err != nil {
		return rec, err
	}
	if rec.Delta.Del, err = d.edges(); err != nil {
		return rec, err
	}
	if d.off != len(payload) {
		return rec, fmt.Errorf("%w: %d trailing payload bytes", ErrWALCorrupt, len(payload)-d.off)
	}
	return rec, nil
}

// parseWAL scans a whole log: the version-2 file header, then frames. It
// returns the decoded records of the valid prefix and its byte length, the
// file header included. A torn tail ends the scan cleanly at the last valid
// frame — a torn file header at an empty prefix — and a log that opens with
// other bytes, or is corrupt, returns ErrWALCorrupt.
func parseWAL(buf []byte) (recs []walRecord, valid int, err error) {
	if head := buf[:min(len(buf), walHeaderLen)]; string(head) != walHeader {
		if len(head) < walHeaderLen && walHeader[:len(head)] == string(head) {
			return nil, 0, nil // a torn file header, or no log at all
		}
		return nil, 0, fmt.Errorf("%w: the log opens with %q, not the version-2 header %q", ErrWALCorrupt, head, walHeader)
	}
	recs, valid, err = parseFrames(buf[walHeaderLen:])
	return recs, walHeaderLen + valid, err
}

// parseFrames scans buf, the frames of a log after its file header, and
// returns the records of its valid prefix and its length; see the file
// comment for what is torn and what is corrupt.
func parseFrames(buf []byte) (recs []walRecord, valid int, err error) {
	off := 0
	for off < len(buf) {
		rem := len(buf) - off
		if rem < frameHeader {
			return recs, off, nil // torn header
		}
		length := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if crc32.ChecksumIEEE(buf[off:off+8]) != binary.LittleEndian.Uint32(buf[off+8:]) {
			if rem == frameHeader {
				return recs, off, nil // a torn header with nothing after it
			}
			return recs, off, fmt.Errorf("%w: frame header check fails at offset %d", ErrWALCorrupt, off)
		}
		if length > maxWALRecord {
			return recs, off, fmt.Errorf("%w: frame length %d at offset %d", ErrWALCorrupt, length, off)
		}
		if rem < frameHeader+length {
			return recs, off, nil // torn payload
		}
		payload := buf[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, fmt.Errorf("%w: crc mismatch at offset %d", ErrWALCorrupt, off)
		}
		rec, derr := decodeWALPayload(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("offset %d: %w", off, derr)
		}
		recs = append(recs, rec)
		off += frameHeader + length
	}
	return recs, off, nil
}

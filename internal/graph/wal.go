package graph

// Write-ahead log encoding: the durable on-disk form of the per-revision
// mutation log. One record frames one applied Delta batch together with its
// revision window, so replay reproduces the exact lineage the in-memory
// deltaLog describes:
//
//	frame   := length(uint32 LE) crc(uint32 LE) payload
//	payload := fromRev(uvarint) toRev(uvarint) edges(Add) edges(Del)
//	edges   := count(uvarint) { len(from) from len(to) to label(uvarint) }*
//
// The CRC is IEEE CRC-32 over the payload. Recovery distinguishes a torn
// tail (a crash mid-append: the last frame is shorter than its declared
// length, or its CRC fails with nothing after it — truncated and forgotten,
// the batch was never acknowledged) from mid-file corruption (a CRC failure
// with valid data after it — a hard error, the log is not trustworthy).
//
// Side records share the frame format but carry opaque application state
// instead of a Delta batch. They are recognized by a sentinel first uvarint:
//
//	payload := sideFromRev(uvarint = 2^64-1) kind(uvarint) blob(rest)
//
// No real record can declare fromRev 2^64-1 (it would leave no room for
// toRev > fromRev), so old logs parse unchanged. Replay and follower tailing
// skip side records in the revision-continuity checks — they interleave
// freely with delta records. The serving layer uses kind 1 to persist parked
// ranked cursors across restarts (see cmd/cxrpq-serve); blobs are opaque to
// this package. Side records live in the WAL only: a checkpoint truncates
// them away, which is why side state must always be reconstructible (for
// cursors: a lost record degrades to HTTP 410, the pre-persistence
// behavior).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// sideFromRev marks a side-record payload: an impossible fromRev.
const sideFromRev = math.MaxUint64

// walRecord is one framed Delta batch: applying Delta to the graph at
// revision FromRev yields revision ToRev. With Side set it is instead an
// opaque application side record (Kind + Blob) and the other fields are
// meaningless.
type walRecord struct {
	FromRev, ToRev uint64
	Delta          Delta

	Side bool
	Kind uint64
	Blob []byte
}

// maxWALRecord bounds a single record frame; a declared length beyond it is
// treated as corruption rather than an allocation request.
const maxWALRecord = 1 << 30

// ErrWALCorrupt reports a CRC or structural failure in the interior of the
// log — unlike a torn tail, it cannot be explained by a crashed append.
var ErrWALCorrupt = errors.New("graph: wal corrupt")

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendEdges(b []byte, edges []DeltaEdge) []byte {
	b = appendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = appendUvarint(b, uint64(len(e.From)))
		b = append(b, e.From...)
		b = appendUvarint(b, uint64(len(e.To)))
		b = append(b, e.To...)
		b = appendUvarint(b, uint64(uint32(e.Label)))
	}
	return b
}

// encodeWALRecord appends the full frame (header + payload) for rec to b.
func encodeWALRecord(b []byte, rec walRecord) []byte {
	payload := appendUvarint(nil, rec.FromRev)
	payload = appendUvarint(payload, rec.ToRev)
	payload = appendEdges(payload, rec.Delta.Add)
	payload = appendEdges(payload, rec.Delta.Del)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// encodeWALSideRecord appends the full frame for an application side record:
// the sentinel fromRev, the record kind, then the opaque blob.
func encodeWALSideRecord(b []byte, kind uint64, blob []byte) []byte {
	payload := appendUvarint(nil, uint64(sideFromRev))
	payload = appendUvarint(payload, kind)
	payload = append(payload, blob...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
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
	if rec.FromRev == sideFromRev {
		rec.Side = true
		if rec.Kind, err = d.uvarint(); err != nil {
			return rec, err
		}
		rec.Blob = append([]byte(nil), d.buf[d.off:]...)
		return rec, nil
	}
	if rec.ToRev, err = d.uvarint(); err != nil {
		return rec, err
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

// parseWAL scans buf for complete valid frames. It returns the decoded
// records and the byte length of the valid prefix. A torn tail — an
// incomplete final frame, or a final frame whose CRC fails with no data
// after it — ends the scan cleanly at the last valid frame; interior CRC or
// structural failures return ErrWALCorrupt.
func parseWAL(buf []byte) (recs []walRecord, valid int, err error) {
	off := 0
	for off < len(buf) {
		rem := len(buf) - off
		if rem < 8 {
			return recs, off, nil // torn header
		}
		length := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if length > maxWALRecord {
			return recs, off, fmt.Errorf("%w: frame length %d at offset %d", ErrWALCorrupt, length, off)
		}
		if rem < 8+length {
			return recs, off, nil // torn payload
		}
		payload := buf[off+8 : off+8+length]
		if crc32.ChecksumIEEE(payload) != crc {
			if off+8+length == len(buf) {
				return recs, off, nil // torn final frame
			}
			return recs, off, fmt.Errorf("%w: crc mismatch at offset %d", ErrWALCorrupt, off)
		}
		rec, derr := decodeWALPayload(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("offset %d: %w", off, derr)
		}
		recs = append(recs, rec)
		off += 8 + length
	}
	return recs, off, nil
}

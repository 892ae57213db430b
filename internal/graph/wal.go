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
// never acknowledged — from corruption, a hard error. A frame is torn only
// if it ends at the end of the log short of a whole frame: a partial header,
// a header with nothing after it, or a header that checks and a short
// payload. Any other failure — a header that fails its check with bytes
// after it, a payload that fails its CRC — is ErrWALCorrupt.
//
// A version-1 log, written before the file header existed, is a bare
// sequence of 8-byte-header frames (length, crc) whose length nothing
// checks: an overrunning length reads as a torn tail. It is only read: it
// replays by its own rules, and a store that opens a non-empty one
// checkpoints before its first append, so new frames start a version-2 log.
//
// Sentinel frames of older logs — a payload opening with fromRev 2^64-1,
// which no batch can declare — are decoded and skipped.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// sideFromRev marks a sentinel frame's payload: an impossible fromRev.
const sideFromRev = math.MaxUint64

// walRecord is one framed Delta batch: applying Delta to the graph at
// revision FromRev yields revision ToRev. With Side set it is instead an
// older log's sentinel frame (its Kind and Blob), which replay skips.
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

const (
	walMagic      = "CXWL" // as a v1 length it would exceed maxWALRecord
	walVersion    = 2
	walHeaderLen  = 8
	frameHeader   = 12
	frameHeaderV1 = 8
)

// appendWALHeader appends the file header of a version-2 log.
func appendWALHeader(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(append(b, walMagic...), walVersion)
}

// appendFrame appends payload framed as a version-2 log frames it.
func appendFrame(b, payload []byte) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[at:at+8]))
	return append(b, payload...)
}

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

// parseWAL scans a whole log for complete valid frames: a version-2 log, or
// a v1 one (reported by v1). It returns the decoded records and the byte
// length of the valid prefix, the file header included. A torn tail ends the
// scan cleanly at the last valid frame — a torn file header at an empty
// prefix — and corruption returns ErrWALCorrupt. A first word one byte off
// the magic is a damaged header, not a v1 length.
func parseWAL(buf []byte) (recs []walRecord, valid int, v1 bool, err error) {
	if k := min(len(buf), len(walMagic)); k > 0 && string(buf[:k]) == walMagic[:k] {
		if len(buf) < walHeaderLen {
			return nil, 0, false, nil // torn file header
		}
		if v := binary.LittleEndian.Uint32(buf[len(walMagic):]); v != walVersion {
			return nil, 0, false, fmt.Errorf("%w: log version %d", ErrWALCorrupt, v)
		}
		recs, valid, err = parseFrames(buf[walHeaderLen:], false)
		return recs, walHeaderLen + valid, false, err
	}
	if len(buf) >= len(walMagic) {
		off := 0
		for i := range len(walMagic) {
			if buf[i] != walMagic[i] {
				off++
			}
		}
		if off == 1 {
			return nil, 0, false, fmt.Errorf("%w: damaged log header", ErrWALCorrupt)
		}
	}
	recs, valid, err = parseFrames(buf, true)
	return recs, valid, true, err
}

// parseFrames scans buf, a sequence of frames of a v2 log — or with v1 of a
// v1 log — and returns the records of its valid prefix and its length; see
// the file comment for what is torn and what is corrupt.
func parseFrames(buf []byte, v1 bool) (recs []walRecord, valid int, err error) {
	hl := frameHeader
	if v1 {
		hl = frameHeaderV1
	}
	off := 0
	for off < len(buf) {
		rem := len(buf) - off
		if rem < hl {
			return recs, off, nil // torn header
		}
		length := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if !v1 && crc32.ChecksumIEEE(buf[off:off+8]) != binary.LittleEndian.Uint32(buf[off+8:]) {
			if rem == hl {
				return recs, off, nil // a torn header with nothing after it
			}
			return recs, off, fmt.Errorf("%w: frame header check fails at offset %d", ErrWALCorrupt, off)
		}
		if length > maxWALRecord {
			return recs, off, fmt.Errorf("%w: frame length %d at offset %d", ErrWALCorrupt, length, off)
		}
		if rem < hl+length {
			return recs, off, nil // torn payload
		}
		payload := buf[off+hl : off+hl+length]
		if crc32.ChecksumIEEE(payload) != crc {
			if v1 && off+hl+length == len(buf) {
				return recs, off, nil // a v1 log's torn final frame
			}
			return recs, off, fmt.Errorf("%w: crc mismatch at offset %d", ErrWALCorrupt, off)
		}
		rec, derr := decodeWALPayload(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("offset %d: %w", off, derr)
		}
		recs = append(recs, rec)
		off += hl + length
	}
	return recs, off, nil
}

package main

import (
	"encoding/json"
	"math"
	"strconv"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// The /query response encoder. A row response is written by copying bytes:
// every node's name is quoted once, into the name table of the published state
// (or of the request, on an inline graph), and a row field is one append of
// its quoted bytes to the pooled response buffer — no []string per row, no
// reflection walk, no escaping per row. The bytes are exactly what json.Encoder
// writes for the struct below with "answers" and "costs" after "count":
// compact, no whitespace, one trailing newline (TestEncodeMatchesEncodingJSON,
// FuzzEncodeResponse). Responses with an explanation, and every other
// endpoint, go through encoding/json under the same compact rule.

type queryResponse struct {
	Fragment     string           `json:"fragment"`
	Count        int              `json:"count"`
	Bool         *bool            `json:"bool,omitempty"`
	Explanation  *explanationJSON `json:"explanation,omitempty"`
	Cursor       string           `json:"cursor,omitempty"`        // more rows remain; fetch with {"cursor":...}
	Truncated    bool             `json:"truncated,omitempty"`     // cut by deadline, disconnect or shed budget
	Shed         bool             `json:"shed,omitempty"`          // degraded by the soft-saturation limiter
	RowsStreamed int64            `json:"rows_streamed,omitempty"` // rows delivered by this stream so far
	ElapsedMS    float64          `json:"elapsed_ms"`

	// "answers" (one array of node names per row) and, when the pages carry
	// them, "costs" (per answer: its shortest-witness cost), omitted without
	// rows. A first page is two fetches — the time-to-first-row, then the rest.
	names *nameTable
	rows  [2]pattern.Rows
}

func (r *queryResponse) setRows(names *nameTable, first, rest pattern.Rows) {
	r.names, r.rows = names, [2]pattern.Rows{first, rest}
	r.Count = first.N + rest.N
}

// nameTable holds every node's name as encoding/json quotes it, back to back:
// node v's field is buf[off[v]:off[v+1]]. src is the live DB the table was
// built from; its names are append-only, so the table of a published state
// extends its predecessor's.
type nameTable struct {
	src *graph.DB
	buf []byte
	off []uint32
}

// quoteNames returns the name table of db, a view of the live DB src: prev
// extended by the nodes past it when prev was built from src, else a fresh
// build. prev stays valid, since the new table only appends past what prev
// reads; publish extends each table at most once, under the writer lock.
func quoteNames(prev *nameTable, src, db *graph.DB) *nameTable {
	t := &nameTable{src: src, off: []uint32{0}}
	if prev != nil && prev.src == src {
		t.buf, t.off = prev.buf, prev.off
	}
	for v := len(t.off) - 1; v < db.NumNodes(); v++ {
		t.buf = appendJSONString(t.buf, db.Name(v))
		t.off = append(t.off, uint32(len(t.buf)))
	}
	return t
}

// appendJSONString appends s as encoding/json writes it: printable ASCII with
// none of the five characters json escapes (HTML escaping is on) is its own
// encoding, anything else is left to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f by encoding/json's float64 rule: shortest
// round-trip digits, exponent form outside [1e-6, 1e21), "e-07" as "e-7".
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendQueryResponse appends the compact JSON encoding of a response without
// an explanation, and the newline json.Encoder ends a value with.
func appendQueryResponse(b []byte, r *queryResponse) []byte {
	b = append(b, `{"fragment":`...)
	b = appendJSONString(b, r.Fragment)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if r.rows[0].N+r.rows[1].N > 0 {
		b = append(b, `,"answers":`...)
		buf, off := r.names.buf, r.names.off
		sep := byte('[')
		for _, p := range r.rows {
			for i := 0; i < p.N; i++ {
				b = append(b, sep, '[')
				sep = ','
				for j, v := range p.Row(i) {
					if j > 0 {
						b = append(b, ',')
					}
					b = append(b, buf[off[v]:off[v+1]]...)
				}
				b = append(b, ']')
			}
		}
		b = append(b, ']')
		if len(r.rows[0].Costs)+len(r.rows[1].Costs) > 0 {
			b = append(b, `,"costs":`...)
			sep := byte('[')
			for _, p := range r.rows {
				for _, c := range p.Costs {
					b = strconv.AppendInt(append(b, sep), int64(c), 10)
					sep = ','
				}
			}
			b = append(b, ']')
		}
	}
	if r.Bool != nil {
		b = append(b, `,"bool":`...)
		b = strconv.AppendBool(b, *r.Bool)
	}
	if r.Cursor != "" {
		b = append(b, `,"cursor":`...)
		b = appendJSONString(b, r.Cursor)
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if r.Shed {
		b = append(b, `,"shed":true`...)
	}
	if r.RowsStreamed != 0 {
		b = append(b, `,"rows_streamed":`...)
		b = strconv.AppendInt(b, r.RowsStreamed, 10)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, r.ElapsedMS)
	return append(b, "}\n"...)
}

package main

import (
	"encoding/json"
	"math"
	"strconv"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// The /query response encoder. A row response is written by appending: node
// names go from the database's name table straight between quotes in the
// pooled response buffer — no []string per row, no reflection walk, no
// indentation pass. The bytes are exactly what json.Encoder with
// SetIndent("", "  ") writes for the struct below with "answers" and "costs"
// after "count" (TestEncodeMatchesEncodingJSON, FuzzEncodeResponse); responses
// with an explanation, and every other endpoint, still go through encoding/json.

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
	db   *graph.DB
	rows [2]pattern.Rows
}

func (r *queryResponse) setRows(db *graph.DB, first, rest pattern.Rows) {
	r.db, r.rows = db, [2]pattern.Rows{first, rest}
	r.Count = first.N + rest.N
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

// appendQueryResponse appends the indented JSON encoding of a response
// without an explanation, and the newline json.Encoder ends a value with.
func appendQueryResponse(b []byte, r *queryResponse) []byte {
	b = append(b, "{\n  \"fragment\": "...)
	b = appendJSONString(b, r.Fragment)
	b = append(b, ",\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if r.rows[0].N+r.rows[1].N > 0 {
		b = append(b, ",\n  \"answers\": ["...)
		sep := "\n    ["
		for _, p := range r.rows {
			for i := 0; i < p.N; i++ {
				b = append(b, sep...)
				for j, v := range p.Row(i) {
					if j > 0 {
						b = append(b, ',')
					}
					b = append(b, "\n      "...)
					b = appendJSONString(b, r.db.Name(int(v)))
				}
				if p.Arity > 0 {
					b = append(b, "\n    "...)
				}
				b = append(b, ']')
				sep = ",\n    ["
			}
		}
		b = append(b, "\n  ]"...)
		if len(r.rows[0].Costs)+len(r.rows[1].Costs) > 0 {
			b = append(b, ",\n  \"costs\": ["...)
			sep := "\n    "
			for _, p := range r.rows {
				for _, c := range p.Costs {
					b = append(b, sep...)
					b = strconv.AppendInt(b, int64(c), 10)
					sep = ",\n    "
				}
			}
			b = append(b, "\n  ]"...)
		}
	}
	if r.Bool != nil {
		b = append(b, ",\n  \"bool\": "...)
		b = strconv.AppendBool(b, *r.Bool)
	}
	if r.Cursor != "" {
		b = append(b, ",\n  \"cursor\": "...)
		b = appendJSONString(b, r.Cursor)
	}
	if r.Truncated {
		b = append(b, ",\n  \"truncated\": true"...)
	}
	if r.Shed {
		b = append(b, ",\n  \"shed\": true"...)
	}
	if r.RowsStreamed != 0 {
		b = append(b, ",\n  \"rows_streamed\": "...)
		b = strconv.AppendInt(b, r.RowsStreamed, 10)
	}
	b = append(b, ",\n  \"elapsed_ms\": "...)
	b = appendJSONFloat(b, r.ElapsedMS)
	return append(b, "\n}\n"...)
}

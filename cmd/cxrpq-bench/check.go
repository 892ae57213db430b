package main

// Answer digests and the golden files. An answer is pinned by its row count
// and two order-independent accumulators (wrapping sum and xor) over a 64-bit
// hash of each row, so a paged stream can be checked page by page: equal
// count, sum and xor against a duplicate-free expected answer also rules out
// a duplicated row.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

type digest struct {
	Count int
	Sum   uint64
	Xor   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// rowHasher hashes one row field by field (FNV-1a with a field separator,
// then a finalizer so that sum and xor do not cancel structurally).
type rowHasher uint64

func newRowHasher() rowHasher { return fnvOffset }

func (h *rowHasher) field(name []byte) {
	x := uint64(*h)
	for _, b := range name {
		x = (x ^ uint64(b)) * fnvPrime
	}
	*h = rowHasher((x ^ 0xff) * fnvPrime)
}

func (h rowHasher) sum() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (d *digest) addRow(h uint64) {
	d.Count++
	d.Sum += h
	d.Xor ^= h
}

func (d *digest) merge(o digest) {
	d.Count += o.Count
	d.Sum += o.Sum
	d.Xor ^= o.Xor
}

func (d digest) String() string { return fmt.Sprintf("%d rows/%016x/%016x", d.Count, d.Sum, d.Xor) }

// reply is what the driver reads out of one /query response.
type reply struct {
	Rows      digest
	Count     int // the response's "count" field
	Bool      int // -1 absent, 0 false, 1 true
	Cursor    string
	Truncated bool
	Shed      bool
	ElapsedMS float64
	CostsOK   bool // costs (ranked pages) are nondecreasing
	FirstCost int
	LastCost  int
	NumCosts  int
}

// scanReply reads a /query response body without building it: the rows of a
// streamed page are most of the bytes on stream_hot, and decoding them into
// [][]string would make the driver the bottleneck it is trying to measure.
// It understands exactly the shape cxrpq-serve writes (one top-level object;
// "answers" an array of arrays of strings without escapes; "costs" an array
// of integers) and reports anything else as an error, on which the caller
// falls back to encoding/json.
func scanReply(b []byte, out *reply) error {
	*out = reply{Bool: -1, CostsOK: true}
	i, n := 0, len(b)
	ws := func() {
		for i < n && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
			i++
		}
	}
	str := func() ([]byte, error) {
		if i >= n || b[i] != '"' {
			return nil, fmt.Errorf("offset %d: want string", i)
		}
		i++
		start := i
		for i < n && b[i] != '"' {
			if b[i] == '\\' {
				return nil, fmt.Errorf("offset %d: escaped string", i)
			}
			i++
		}
		if i >= n {
			return nil, fmt.Errorf("unterminated string")
		}
		i++
		return b[start : i-1], nil
	}
	scalar := func() []byte {
		start := i
		for i < n && b[i] != ',' && b[i] != '}' && b[i] != ']' && b[i] != '\n' && b[i] != ' ' {
			i++
		}
		return b[start:i]
	}
	ws()
	if i >= n || b[i] != '{' {
		return fmt.Errorf("want object")
	}
	i++
	for {
		ws()
		if i < n && b[i] == '}' {
			return nil
		}
		key, err := str()
		if err != nil {
			return err
		}
		ws()
		if i >= n || b[i] != ':' {
			return fmt.Errorf("offset %d: want ':'", i)
		}
		i++
		ws()
		switch string(key) {
		case "answers":
			if i >= n || b[i] != '[' {
				return fmt.Errorf("answers: want array")
			}
			i++
			for {
				ws()
				if i < n && b[i] == ']' {
					i++
					break
				}
				if i >= n || b[i] != '[' {
					return fmt.Errorf("answers: want row at offset %d", i)
				}
				i++
				h := newRowHasher()
				for {
					ws()
					if i < n && b[i] == ']' {
						i++
						break
					}
					f, err := str()
					if err != nil {
						return err
					}
					h.field(f)
					ws()
					if i < n && b[i] == ',' {
						i++
					}
				}
				out.Rows.addRow(h.sum())
				ws()
				if i < n && b[i] == ',' {
					i++
				}
			}
		case "costs":
			if i >= n || b[i] != '[' {
				return fmt.Errorf("costs: want array")
			}
			i++
			for {
				ws()
				if i < n && b[i] == ']' {
					i++
					break
				}
				c, err := strconv.Atoi(string(scalar()))
				if err != nil {
					return fmt.Errorf("costs: %v", err)
				}
				if out.NumCosts == 0 {
					out.FirstCost = c
				} else if c < out.LastCost {
					out.CostsOK = false
				}
				out.LastCost = c
				out.NumCosts++
				ws()
				if i < n && b[i] == ',' {
					i++
				}
			}
		case "cursor":
			s, err := str()
			if err != nil {
				return err
			}
			out.Cursor = string(s)
		case "fragment", "error":
			if _, err := str(); err != nil {
				return err
			}
		case "explanation":
			return fmt.Errorf("explanation object")
		default:
			v := string(scalar())
			switch string(key) {
			case "count":
				out.Count, err = strconv.Atoi(v)
			case "elapsed_ms":
				out.ElapsedMS, err = strconv.ParseFloat(v, 64)
			case "truncated":
				out.Truncated = v == "true"
			case "shed":
				out.Shed = v == "true"
			case "bool":
				out.Bool = 0
				if v == "true" {
					out.Bool = 1
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
		}
		ws()
		if i < n && b[i] == ',' {
			i++
		}
	}
}

// decodeReply is the encoding/json rendering of scanReply: the fallback for a
// body the scanner refuses, and the reference its unit test compares against.
func decodeReply(b []byte, out *reply) error {
	var r struct {
		Count     int        `json:"count"`
		Answers   [][]string `json:"answers"`
		Costs     []int      `json:"costs"`
		Bool      *bool      `json:"bool"`
		Cursor    string     `json:"cursor"`
		Truncated bool       `json:"truncated"`
		Shed      bool       `json:"shed"`
		ElapsedMS float64    `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	*out = reply{Bool: -1, CostsOK: true, Count: r.Count, Cursor: r.Cursor,
		Truncated: r.Truncated, Shed: r.Shed, ElapsedMS: r.ElapsedMS, NumCosts: len(r.Costs)}
	if r.Bool != nil {
		out.Bool = 0
		if *r.Bool {
			out.Bool = 1
		}
	}
	for _, row := range r.Answers {
		h := newRowHasher()
		for _, f := range row {
			h.field([]byte(f))
		}
		out.Rows.addRow(h.sum())
	}
	for i, c := range r.Costs {
		if i == 0 {
			out.FirstCost = c
		} else if c < out.LastCost {
			out.CostsOK = false
		}
		out.LastCost = c
	}
	return nil
}

// golden pins expected digests at the default seed, keyed "op:<index>" for
// the first ops of the measured list and "lit:<template>" for the literal
// templates at the base revision. It was computed in process at the commit
// that added the benchmark, so it also catches the server and the library
// going wrong together, which the in-process cross-check cannot.
type golden struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Pins     map[string]pin `json:"pins"`
}

type pin struct {
	Count int    `json:"count"`
	Sum   string `json:"sum"` // hex
	Xor   string `json:"xor"` // hex
}

func pinOf(d digest) pin {
	return pin{Count: d.Count, Sum: strconv.FormatUint(d.Sum, 16), Xor: strconv.FormatUint(d.Xor, 16)}
}

func (p pin) digest() digest {
	d := digest{Count: p.Count}
	d.Sum, _ = strconv.ParseUint(p.Sum, 16, 64)
	d.Xor, _ = strconv.ParseUint(p.Xor, 16, 64)
	return d
}

func goldenPath(benchDir, workload string, seed int64) string {
	return filepath.Join(benchDir, "golden", fmt.Sprintf("%s.seed%d.json", workload, seed))
}

// loadGolden returns nil without error when no golden exists for the seed.
func loadGolden(benchDir, workload string, seed int64) (*golden, error) {
	b, err := os.ReadFile(goldenPath(benchDir, workload, seed))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	return &g, nil
}

func writeGolden(benchDir string, g *golden) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(benchDir, g.Workload, g.Seed), append(b, '\n'), 0o644)
}

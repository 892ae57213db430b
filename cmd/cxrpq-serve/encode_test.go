package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// refResponse is the /query response as the server used to hand it to
// encoding/json, [][]string answers and all: the reference the append encoder
// is held to, byte for byte.
type refResponse struct {
	Fragment     string           `json:"fragment"`
	Count        int              `json:"count"`
	Answers      [][]string       `json:"answers,omitempty"`
	Costs        []int            `json:"costs,omitempty"`
	Bool         *bool            `json:"bool,omitempty"`
	Explanation  *explanationJSON `json:"explanation,omitempty"`
	Cursor       string           `json:"cursor,omitempty"`
	Truncated    bool             `json:"truncated,omitempty"`
	Shed         bool             `json:"shed,omitempty"`
	RowsStreamed int64            `json:"rows_streamed,omitempty"`
	ElapsedMS    float64          `json:"elapsed_ms"`
}

// refEncode is the old path: names into a []string per row, then json.Encoder
// with SetIndent("", "  ").
func refEncode(t testing.TB, r *queryResponse) []byte {
	ref := refResponse{Fragment: r.Fragment, Count: r.Count, Bool: r.Bool, Cursor: r.Cursor,
		Truncated: r.Truncated, Shed: r.Shed, RowsStreamed: r.RowsStreamed, ElapsedMS: r.ElapsedMS}
	for _, p := range r.rows {
		for i := 0; i < p.N; i++ {
			row := make([]string, p.Arity)
			for j, v := range p.Row(i) {
				row[j] = r.db.Name(int(v))
			}
			ref.Answers = append(ref.Answers, row)
			if p.Costs != nil {
				ref.Costs = append(ref.Costs, int(p.Costs[i]))
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEncode(t testing.TB, name string, r *queryResponse) {
	t.Helper()
	want := refEncode(t, r)
	if got := appendQueryResponse(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("%s: append encoder and encoding/json disagree\n got: %q\nwant: %q", name, got, want)
	}
}

// nastyNames are node names that exercise every branch of encoding/json's
// string escaping.
var nastyNames = []string{"a", "node-17", "", `q"uote`, `back\slash`, "<tag>&amp;", "tab\there", "nul\x00",
	"line\u2028sep\u2029", "bad\xffutf8", "\x7f", "héllo", "日本", "\U0001F600", "trail\xc3"}

func nastyDB() *graph.DB {
	db := graph.New()
	for _, n := range nastyNames {
		db.Node(n)
	}
	return db
}

func rowsOfIDs(arity int, costs bool, ids ...int32) pattern.Rows {
	r := pattern.Rows{Arity: arity, Data: ids}
	if arity > 0 {
		r.N = len(ids) / arity
	}
	if costs {
		for i := 0; i < r.N; i++ {
			r.Costs = append(r.Costs, int32(i*i))
		}
	}
	return r
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	db := nastyDB()
	yes, no := true, false
	all := make([]int32, len(nastyNames))
	for i := range all {
		all[i] = int32(i)
	}
	base := func() *queryResponse { return &queryResponse{Fragment: "CRPQ", db: db} }
	cases := map[string]func(r *queryResponse){
		"empty answer":      func(r *queryResponse) {},
		"one row":           func(r *queryResponse) { r.setRows(db, rowsOfIDs(2, false, 0, 1), pattern.Rows{}) },
		"every nasty name":  func(r *queryResponse) { r.setRows(db, rowsOfIDs(1, false, all...), pattern.Rows{}) },
		"wide row":          func(r *queryResponse) { r.setRows(db, rowsOfIDs(len(all), false, all...), pattern.Rows{}) },
		"first plus rest":   func(r *queryResponse) { r.setRows(db, rowsOfIDs(2, false, 3, 4), rowsOfIDs(2, false, 5, 6, 7, 8)) },
		"ranked costs":      func(r *queryResponse) { r.setRows(db, rowsOfIDs(2, true, 0, 1), rowsOfIDs(2, true, 1, 0, 2, 2)) },
		"zero-arity answer": func(r *queryResponse) { r.setRows(db, pattern.Rows{N: 1}, pattern.Rows{}) },
		"bool true":         func(r *queryResponse) { r.Bool, r.Count = &yes, 1 },
		"bool false":        func(r *queryResponse) { r.Bool = &no },
		"cursor":            func(r *queryResponse) { r.Cursor = "c0ffee" },
		"nasty cursor":      func(r *queryResponse) { r.Cursor = `<"&\>` },
		"nasty fragment":    func(r *queryResponse) { r.Fragment = "CXRPQ^≤k <vsf>" },
		"truncated shed": func(r *queryResponse) {
			r.Truncated, r.Shed = true, true
			r.setRows(db, rowsOfIDs(1, false, 2), pattern.Rows{})
		},
		"rows streamed": func(r *queryResponse) { r.RowsStreamed = 1 << 40 },
		"everything": func(r *queryResponse) {
			r.setRows(db, rowsOfIDs(3, true, 0, 1, 2), rowsOfIDs(3, true, all[:12]...))
			r.Bool, r.Cursor, r.Truncated, r.Shed, r.RowsStreamed = &yes, "tok", true, true, 5
		},
	}
	for name, fill := range cases {
		r := base()
		fill(r)
		checkEncode(t, name, r)
	}
	for _, ms := range []float64{0, 1e-7, 9.99e-7, 1e-6, 0.001, 0.25, 1, 12.345, 1e20, 1e21, 1.5e300, -3.5, -1e-9} {
		r := base()
		r.ElapsedMS = ms
		checkEncode(t, fmt.Sprint("elapsed_ms ", ms), r)
	}
}

func FuzzEncodeResponse(f *testing.F) {
	f.Add("CRPQ", "a", "b", "tok", 2, true, false, true, int64(3), 0.5, 7)
	f.Add("", `"`, "< >", "", 0, false, true, false, int64(0), 1e-7, 0)
	f.Add("x\xff", "\x00\x1f", "é\\", "&", 1, true, true, true, int64(-1), 1e21, 1)
	f.Fuzz(func(t *testing.T, fragment, n1, n2, cursor string, arity int, ranked, truncated, shed bool, streamed int64, ms float64, nrows int) {
		if ms != ms || ms-ms != 0 { // NaN and ±Inf: encoding/json refuses them, elapsed_ms never is one
			t.Skip()
		}
		db := graph.New()
		ids := []int32{int32(db.Node(n1)), int32(db.Node(n2))}
		arity, nrows = (arity%4+4)%4, (nrows%9+9)%9
		p := pattern.Rows{Arity: arity, N: nrows}
		for i := 0; i < arity*nrows; i++ {
			p.Data = append(p.Data, ids[(i+i/3)%2])
		}
		for i := 0; ranked && i < nrows; i++ {
			p.Costs = append(p.Costs, int32(i))
		}
		r := &queryResponse{Fragment: fragment, Cursor: cursor, Truncated: truncated, Shed: shed,
			RowsStreamed: streamed, ElapsedMS: ms}
		r.setRows(db, p.Slice(0, min(1, nrows)), p.Slice(min(1, nrows), nrows))
		checkEncode(t, "fuzz", r)
	})
}

// pageFixture is a warm session whose cached answer has more than 2048 rows,
// and the database it is over.
func pageFixture(t testing.TB) (*cxrpq.Session, *graph.DB) {
	db := graph.New()
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			db.AddEdgeNames(fmt.Sprintf("u%d", i), 'a', fmt.Sprintf("v%d", j))
		}
	}
	plan, err := cxrpq.PrepareSrc("ans(x, y)\nx y : a")
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.Bind(db)
	if resp := sess.Do(cxrpq.Request{Op: "eval"}); resp.Err != nil || resp.Tuples.Len() != 3600 {
		t.Fatalf("fixture: %v, %v", resp.Tuples, resp.Err)
	}
	return sess, db
}

// servePage is what a first page costs the server past the HTTP layer: open a
// stream over the cached answer, fetch n rows the way streamQuery does, encode.
func servePage(t testing.TB, sess *cxrpq.Session, db *graph.DB, buf []byte, n int) []byte {
	cur, err := sess.Stream(cxrpq.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := queryResponse{Fragment: "CRPQ"}
	out.setRows(db, cur.FetchRows(1), cur.FetchRows(n-1))
	if out.Count != n {
		t.Fatalf("page of %d rows, want %d", out.Count, n)
	}
	cur.Close()
	return appendQueryResponse(buf[:0], &out)
}

// A warm page from a cached answer and its encoding allocate a constant
// number of objects — the cursor and its budget — whatever the page size: the
// rows are a window of the cached slab and the bytes go into a grown buffer.
func TestPageSteadyStateAllocs(t *testing.T) {
	sess, db := pageFixture(t)
	buf := servePage(t, sess, db, nil, 2048) // grows the buffer, sorts the answer
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { buf = servePage(t, sess, db, buf, n) })
	}
	small, large := allocs(16), allocs(2048)
	if small != large || large > 4 {
		t.Fatalf("a 16-row page allocates %v objects, a 2048-row page %v; want equal and at most 4", small, large)
	}
}

func BenchmarkEncodePage(b *testing.B) {
	sess, db := pageFixture(b)
	cur, err := sess.Stream(cxrpq.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	out := queryResponse{Fragment: "CRPQ", Cursor: "c0ffee", RowsStreamed: 1024}
	out.setRows(db, cur.FetchRows(1024), pattern.Rows{})
	buf := appendQueryResponse(nil, &out)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendQueryResponse(buf[:0], &out)
	}
}

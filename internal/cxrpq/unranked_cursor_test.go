package cxrpq_test

// Unranked cursors with no cached answer pull whole pages from a coroutine
// on the fetching goroutine: opening one starts nothing, and reaching the
// end, reaching the Limit or Close releases what a fetch started. Close
// reports the same way for every cursor kind.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/workload"
)

// Unranked streams with no cached answer — auto and bounded K=1, the
// reference evaluated on a copy of the database — leave the goroutine count flat however they are left: never
// fetched, fetched to the Limit, fetched once and closed, or read to a short
// final page, none of them closed but the third.
func TestUnrankedCursorsLeaveNoGoroutine(t *testing.T) {
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+"))
	db := workload.Random(0x7e57, 30, 120, "ab")
	full, err := tuples(plan.Bind(freshCopy(db)).Do(cxrpq.Request{Op: "eval"}))
	if err != nil || full.Len() < 8 {
		t.Fatalf("fixture: %v tuples, %v", full.Len(), err)
	}
	for _, tc := range []struct {
		name  string
		limit int
		use   func(*testing.T, cxrpq.StreamOptions, *cxrpq.Cursor)
	}{
		{"never fetched", 0, func(*testing.T, cxrpq.StreamOptions, *cxrpq.Cursor) {}},
		{"fetched to the limit", 3, func(t *testing.T, opts cxrpq.StreamOptions, cur *cxrpq.Cursor) {
			if n := len(cur.Fetch(2)) + len(cur.Fetch(2)); n != 3 {
				t.Fatalf("%+v: %d rows under Limit 3", opts, n)
			}
		}},
		{"fetched once and closed", 0, func(t *testing.T, opts cxrpq.StreamOptions, cur *cxrpq.Cursor) {
			if len(cur.Fetch(2)) != 2 {
				t.Fatalf("%+v: short first page (err %v)", opts, cur.Err())
			}
			cur.Close()
		}},
		{"read to a short page", 0, func(t *testing.T, opts cxrpq.StreamOptions, cur *cxrpq.Cursor) {
			drainCursor(t, cur, 5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				for _, opts := range []cxrpq.StreamOptions{{Limit: tc.limit}, {Semantics: "bounded", K: 1, Limit: tc.limit}} {
					cur, err := plan.Bind(db).Stream(opts)
					if err != nil {
						t.Fatal(err)
					}
					tc.use(t, opts, cur)
				}
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("abandoned unranked cursors left goroutines: %d before, %d after", before, runtime.NumGoroutine())
				}
			}
		})
	}
}

// Closing a cursor mid-stream changes neither Truncated nor Err, whatever
// serves its pages: a cached answer's window, a ranked prefix, or an
// unranked producer; with or without a deadline already past.
func TestCloseKeepsCursorReport(t *testing.T) {
	q := cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+")
	db := workload.Random(0x51ab, 40, 200, "ab")
	cached := cxrpq.MustPrepare(q).Bind(db)
	cold := func() *cxrpq.Session { return cxrpq.MustPrepare(q).Bind(db) } // no answer filed
	if resp := cached.Do(cxrpq.Request{Op: "eval"}); resp.Err != nil || resp.Tuples.Len() < 16 {
		t.Fatalf("fixture: %v", resp.Err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		sess *cxrpq.Session
		opts cxrpq.StreamOptions
	}{
		{"window", cached, cxrpq.StreamOptions{}},
		{"ranked", cold(), cxrpq.StreamOptions{Ranked: true}},
		{"unranked", cold(), cxrpq.StreamOptions{}},
		{"bounded", cold(), cxrpq.StreamOptions{Semantics: "bounded", K: 1}},
		{"window canceled", cached, cxrpq.StreamOptions{Ctx: canceled}},
		{"unranked canceled", cold(), cxrpq.StreamOptions{Ctx: canceled}},
	} {
		cur, err := tc.sess.Stream(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		cur.Fetch(3)
		trunc, cerr := cur.Truncated(), cur.Err()
		cur.Close()
		if cur.Truncated() != trunc || cur.Err() != cerr {
			t.Errorf("%s: truncated %v, err %v before Close; %v, %v after", tc.name, trunc, cerr, cur.Truncated(), cur.Err())
		}
	}
}

// BenchmarkUncachedStreamPages times the unranked producer's page path: a
// fresh session, one stream with no cached answer, eleven pages of 100 rows
// and Close.
func BenchmarkUncachedStreamPages(b *testing.B) {
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, y)\nx y : a|b"))
	db := workload.Random(0x7e57, 400, 2400, "ab")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < 11; p++ {
			if got := cur.FetchRows(100); got.N != 100 {
				b.Fatalf("page %d: %d rows (err %v)", p, got.N, cur.Err())
			}
		}
		cur.Close()
	}
}

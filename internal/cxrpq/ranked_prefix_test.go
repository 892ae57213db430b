package cxrpq_test

// The ranked prefix: every unweighted ranked stream of a session epoch pages
// through one shared, append-only prefix of the ranked sequence and extends
// it, a whole cost tier at a time, with a producer pulled on its own fetching
// goroutine. Cursors that interleave — different page sizes and limits, one
// canceled mid-tier — must each see exactly the drain-then-sort sequence
// (Session.StreamDrained), the prefix they leave must be a prefix of it that
// ends on a whole tier, goroutines that share the prefix must be race-free,
// and no ranked cursor may start a goroutine.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

// sameRow reports whether two ranked rows agree in tuple and cost.
func sameRow(a, b cxrpq.Row) bool { return a.Cost == b.Cost && a.Tuple.Key() == b.Tuple.Key() }

// checkRankedPrefix holds the session's ranked prefix to want, the complete
// ranked sequence: a prefix of it that is done only when it is all of it, and
// otherwise ends where a tier does.
func checkRankedPrefix(t *testing.T, sess *cxrpq.Session, opts cxrpq.StreamOptions, want []cxrpq.Row) {
	t.Helper()
	p, done := sess.RankedPrefix(opts)
	got := pageRows(p)
	if len(got) > len(want) {
		t.Fatalf("the ranked prefix has %d rows, the sequence %d", len(got), len(want))
	}
	for i := range got {
		if !sameRow(got[i], want[i]) {
			t.Fatalf("ranked prefix row %d = %v, the sequence has %v", i, got[i], want[i])
		}
	}
	n := len(got)
	if done && n != len(want) || n > 0 && n < len(want) && want[n].Cost == want[n-1].Cost {
		t.Fatalf("the ranked prefix ends at row %d of %d (done %v) inside the cost-%d tier", n, len(want), done, want[n-1].Cost)
	}
}

// rankedReader is one cursor of the interleaving and what it has read.
type rankedReader struct {
	cur   *cxrpq.Cursor
	page  int
	limit int
	rows  []cxrpq.Row
	done  bool
}

// interleaveRanked opens three ranked cursors on sess and fetches from them in
// turn until each is exhausted: one that is canceled after its first page, one
// page by one row and one limited to about half the sequence, three rows a
// page. It checks every cursor and the prefix against want after each round.
func interleaveRanked(t *testing.T, sess *cxrpq.Session, opts cxrpq.StreamOptions, want []cxrpq.Row) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	limit := len(want)/2 + 1
	open := func(o cxrpq.StreamOptions, page int) *rankedReader {
		cur, err := sess.Stream(o)
		if err != nil {
			t.Fatal(err)
		}
		return &rankedReader{cur: cur, page: page, limit: o.Limit}
	}
	canceled := opts
	canceled.Ctx = ctx
	limited := opts
	limited.Limit = limit
	readers := []*rankedReader{open(canceled, 2), open(opts, 1), open(limited, 3)}
	servedBeforeCancel := 0
	for round := 0; ; round++ {
		active := false
		for i, r := range readers {
			if r.done {
				continue
			}
			active = true
			p := r.cur.Fetch(r.page)
			r.rows = append(r.rows, p...)
			if r.done = len(p) < r.page; r.done && r.cur.Err() != nil {
				t.Fatalf("cursor %d: %v", i, r.cur.Err())
			}
			if i == 0 && round == 0 {
				cancel() // after its first page: mid-tier whenever the tier is wider than two rows
				servedBeforeCancel = len(r.rows)
			}
		}
		checkRankedPrefix(t, sess, opts, want)
		if !active {
			break
		}
	}

	for i, r := range readers[1:] {
		n := len(want)
		if r.limit > 0 {
			n = min(n, r.limit)
		}
		if len(r.rows) != n || r.cur.Truncated() {
			t.Fatalf("cursor %d: %d rows (truncated %v), want %d", i+1, len(r.rows), r.cur.Truncated(), n)
		}
		for j := range r.rows {
			if !sameRow(r.rows[j], want[j]) {
				t.Fatalf("cursor %d row %d = %v, the sequence has %v", i+1, j, r.rows[j], want[j])
			}
		}
	}

	// The canceled cursor: what it served of whole tiers is the sequence; the
	// tier it was cut in, if any, is a sound sorted part of that tier.
	c := readers[0]
	whole := len(c.rows)
	if c.cur.Truncated() && whole > 0 {
		for last := c.rows[whole-1].Cost; whole > servedBeforeCancel && c.rows[whole-1].Cost == last; {
			whole--
		}
	} else if len(c.rows) != len(want) {
		t.Fatalf("the canceled cursor is not truncated but has %d rows of %d", len(c.rows), len(want))
	}
	inWant := map[string]int{}
	for _, r := range want {
		inWant[string(r.Tuple.Key())] = r.Cost
	}
	for j, r := range c.rows {
		if j < whole && !sameRow(r, want[j]) {
			t.Fatalf("canceled cursor row %d = %v, the sequence has %v", j, r, want[j])
		}
		if cost, ok := inWant[string(r.Tuple.Key())]; !ok || cost != r.Cost || j > 0 && r.Cost < c.rows[j-1].Cost {
			t.Fatalf("canceled cursor row %d = %v: not in the sequence at that cost, or out of order", j, r)
		}
	}
}

func TestRankedPrefixDifferential(t *testing.T) {
	type input struct {
		name string
		q    *cxrpq.Query
		db   *graph.DB
	}
	var inputs []input
	for seed := int64(0); seed < 30; seed++ {
		r := workload.NewRNG(seed ^ 0x5eed)
		inputs = append(inputs, input{fmt.Sprint("seed", seed), workload.RandomQuery(r, true), workload.Random(seed^0x2b2b, 5, 12, "ab")})
	}
	// Hundreds of rows in many tiers: the canceled cursor's producer is cut
	// between its budget polls, not at the end.
	inputs = append(inputs, input{"tiers", cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+"), workload.Random(0x7e57, 30, 120, "ab")})
	wide, _, _, _ := overCapQueries()
	inputs = append(inputs, input{"overcap", wide, workload.Random(3, 6, 13, "ab")})

	for _, in := range inputs {
		plan := cxrpq.MustPrepare(in.q)
		dispatches := []cxrpq.StreamOptions{{Ranked: true, Semantics: "bounded", K: 1}}
		if _, err := tuples(plan.Bind(in.db).Do(cxrpq.Request{Op: "eval"})); err == nil {
			dispatches = append(dispatches, cxrpq.StreamOptions{Ranked: true})
		}
		if in.name == "overcap" {
			dispatches = dispatches[1:] // 22 string variables: bounded semantics is out of reach
		}
		for _, opts := range dispatches {
			sess := plan.Bind(in.db)
			base, err := sess.StreamDrained(opts)
			if err != nil {
				t.Fatalf("%s %q: %v", in.name, opts.Semantics, err)
			}
			want := drainCursor(t, base, 64)
			checkRankedPrefix(t, sess, opts, want) // the baseline shares nothing
			if p, _ := sess.RankedPrefix(opts); p.N != 0 {
				t.Fatalf("%s %q: StreamDrained published %d rows", in.name, opts.Semantics, p.N)
			}
			interleaveRanked(t, sess, opts, want)
		}
	}
}

// drainRows pulls a cursor dry with the given page size; usable off the test
// goroutine.
func drainRows(cur *cxrpq.Cursor, page int) []cxrpq.Row {
	var rows []cxrpq.Row
	for {
		p := cur.Fetch(page)
		rows = append(rows, p...)
		if len(p) < page {
			return rows
		}
	}
}

// Eight goroutines stream one session's ranked sequence at once, half of them
// abandoning their cursors mid-stream without Close: every drained cursor
// reads the drain-then-sort sequence, and the session is left with all of it
// (run with -race: the prefix is the one thing the cursors share).
func TestRankedPrefixConcurrent(t *testing.T) {
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+"))
	db := workload.Random(0x7e57, 30, 120, "ab")
	for _, opts := range []cxrpq.StreamOptions{{Ranked: true}, {Ranked: true, Semantics: "bounded", K: 1}} {
		sess := plan.Bind(db)
		base, err := sess.StreamDrained(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := drainCursor(t, base, 256)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur, err := sess.Stream(opts)
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 1 {
					cur.Fetch(1 + g)
					cur.Fetch(7) // and dropped
					return
				}
				rows := drainRows(cur, 3+g)
				if len(rows) != len(want) || cur.Err() != nil || cur.Truncated() {
					t.Errorf("goroutine %d: %d rows (err %v, truncated %v), want %d", g, len(rows), cur.Err(), cur.Truncated(), len(want))
					return
				}
				for i := range rows {
					if !sameRow(rows[i], want[i]) {
						t.Errorf("goroutine %d row %d = %v, the sequence has %v", g, i, rows[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		checkRankedPrefix(t, sess, opts, want)
		if _, done := sess.RankedPrefix(opts); !done {
			t.Fatalf("%q: four drained cursors left the prefix unfinished", opts.Semantics)
		}
	}
}

// Opening and abandoning ranked cursors without Close — incremental ones of
// fresh plans, weighted ones and over-cap drains — leaves the goroutine
// count flat: no ranked cursor starts a goroutine.
func TestRankedCursorsStartNoGoroutine(t *testing.T) {
	q := cxrpq.MustParse("ans(x, z)\nx y : a+\ny z : b+")
	db := workload.Random(0x7e57, 30, 120, "ab")
	shared := cxrpq.MustPrepare(q).Bind(db)
	wide, _, _, _ := overCapQueries()
	over := cxrpq.MustPrepare(wide).Bind(workload.Random(3, 6, 13, "ab"))
	weight := func(label rune) int32 {
		if label == 'b' {
			return 3
		}
		return 1
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		for _, c := range []struct {
			sess *cxrpq.Session
			opts cxrpq.StreamOptions
		}{
			{cxrpq.MustPrepare(q).Bind(db), cxrpq.StreamOptions{Ranked: true}},
			{cxrpq.MustPrepare(q).Bind(db), cxrpq.StreamOptions{Ranked: true, Semantics: "bounded", K: 1}},
			{shared, cxrpq.StreamOptions{Ranked: true, Weight: weight}},
			{over, cxrpq.StreamOptions{Ranked: true}},
		} {
			cur, err := c.sess.Stream(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rows := cur.Fetch(2); len(rows) == 0 {
				t.Fatalf("%+v: first page %v (err %v)", c.opts, rows, cur.Err())
			}
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned ranked cursors left goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
	}
}

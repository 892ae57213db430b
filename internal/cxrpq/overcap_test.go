package cxrpq_test

// The wide-union differential: vstar-free queries of 2^11 Lemma 7 branch
// combinations, whose member source decodes and translates each combination
// when an operation's driver asks for it. Every operation
// of the one union path — eval, Boolean, check, unranked and ranked stream —
// is held to references that never see a branch combination: an equivalent
// query that is a union of one member (the variable-erased CRPQ, or a simple
// query with the alternations inside two definitions), the brute-force oracle
// on that query (22 string variables are beyond it).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// overCapQueries returns the 2^11-combination query of
// TestCheckVsfOverCapHonoursBudget with the CRPQ it is equivalent to, and a
// second one whose other atom spells the first two letters the first atom
// chose — through references that a branch either defines or forces to ε, so
// the members differ in more than a definition nobody reads — with the simple
// query that says the same in two variables.
func overCapQueries() (wide, wideRef, shared, sharedRef *cxrpq.Query) {
	var sb strings.Builder
	for i := 0; i < 11; i++ {
		fmt.Fprintf(&sb, "($a%d{a}|$b%d{b})", i, i)
	}
	wide = cxrpq.MustParse("ans(x, y)\nx y : " + sb.String() + "\n")
	wideRef = cxrpq.MustParse("ans(x, y)\nx y : " + strings.Repeat("(a|b)", 11) + "\n")
	shared = cxrpq.MustParse("ans(x, y, z)\nx y : " + sb.String() + "\nx z : $a0$b0$a1$b1\n")
	sharedRef = cxrpq.MustParse("ans(x, y, z)\nx y : $p{a|b}$q{a|b}" + strings.Repeat("(a|b)", 9) + "\nx z : $p$q\n")
	return wide, wideRef, shared, sharedRef
}

func TestOverCapDifferential(t *testing.T) {
	wide, wideRef, shared, sharedRef := overCapQueries()
	path := workload.Path("abbabaababb", 1)
	rnd := workload.Random(3, 6, 13, "ab")

	for _, c := range []struct {
		name   string
		q, ref *cxrpq.Query
		db     *graph.DB
	}{{"wide/path", wide, wideRef, path}, {"wide/random", wide, wideRef, rnd},
		{"shared/path", shared, sharedRef, path}, {"shared/random", shared, sharedRef, rnd}} {
		t.Run(c.name, func(t *testing.T) {
			want, err := tuples(cxrpq.Do(c.ref, c.db, cxrpq.Request{Op: "eval"}))
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() == 0 {
				t.Fatal("the reference answer is empty: the table would prove nothing")
			}
			if c.db == path || c.q == wide { // three node variables over a cyclic graph are beyond the oracle too
				if ref, err := oracle.EvalCXRPQ(c.ref, c.db, 11); err != nil || !ref.Equal(want) {
					t.Fatalf("oracle has %v, %v; the one-member equivalent %v", ref.Sorted(), err, want.Sorted())
				}
			}
			answer := want.Sorted()[0]
			nonAnswer := make(pattern.Tuple, len(answer))
			for i := len(nonAnswer) - 1; want.Contains(nonAnswer); { // count up, base |V|
				if nonAnswer[i]++; nonAnswer[i] == c.db.NumNodes() {
					if nonAnswer[i], i = 0, i-1; i < 0 {
						t.Fatal("every tuple is an answer: pick another graph")
					}
				} else {
					i = len(nonAnswer) - 1
				}
			}
			plan := cxrpq.MustPrepare(c.q)

			// The session operations, from one request goroutine and from
			// four sharing one session, and the streams are independent of
			// one another: parallel subtests. The operations count the
			// answers of their own copy's store.
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					t.Parallel()
					overCapOperations(t, plan.Bind(freshCopy(c.db)), workers, want, answer, nonAnswer)
				})
			}
			t.Run("streams", func(t *testing.T) {
				t.Parallel()
				overCapStreams(t, plan, c.db, want)
			})
		})
	}
}

// overCapOperations runs every set, Boolean and check operation of sess from
// workers goroutines at once, each request on its own goroutine: under a
// spent budget first, then twice for the answer and the result cache.
func overCapOperations(t *testing.T, sess *cxrpq.Session, workers int, want *pattern.TupleSet, answer, nonAnswer pattern.Tuple) {
	concurrently := func(pass func() error) {
		t.Helper()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = pass()
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	spent := func() *engine.Budget { return engine.NewBudget(nil, time.Now().Add(-time.Second)) }
	// A spent budget first: ErrCanceled from every operation, nothing cached.
	concurrently(func() error {
		for _, req := range []cxrpq.Request{{Op: "eval"}, {Op: "bool"}, {Op: "check", Tuple: answer}} {
			req.Budget = spent()
			if resp := sess.Do(req); !errors.Is(resp.Err, engine.ErrCanceled) || resp.OK {
				return fmt.Errorf("%s under a spent budget = %v, %v; want engine.ErrCanceled", req.Op, resp.OK, resp.Err)
			}
		}
		return nil
	})
	if st := storeStats(sess); st.Results.Entries != 0 {
		t.Fatalf("%d results cached by canceled operations", st.Results.Entries)
	}
	before := storeStats(sess)
	// Then every operation twice: the answer, and the second time from the cache.
	concurrently(func() error {
		for call := 0; call < 2; call++ {
			if got, err := tuples(sess.Do(cxrpq.Request{Op: "eval"})); err != nil || !got.Equal(want) {
				return fmt.Errorf("Eval = %v, %v; want %v", got.Sorted(), err, want.Sorted())
			}
			if ok, err := verdict(sess.Do(cxrpq.Request{Op: "bool"})); err != nil || !ok {
				return fmt.Errorf("EvalBool = %v, %v", ok, err)
			}
			if ok, err := verdict(sess.Do(cxrpq.Request{Op: "check", Tuple: answer})); err != nil || !ok {
				return fmt.Errorf("Check(%v) = %v, %v; want true", answer, ok, err)
			}
			if ok, err := verdict(sess.Do(cxrpq.Request{Op: "check", Tuple: nonAnswer})); err != nil || ok {
				return fmt.Errorf("Check(%v) = %v, %v; want false", nonAnswer, ok, err)
			}
		}
		return nil
	})
	// Four results, each looked up twice per worker: every worker's second
	// lookup hits, and so does every first lookup but the one that filed
	// the result — unless workers missed it at the same time. One worker
	// hits exactly 4 times.
	st := storeStats(sess)
	hits, lookups := st.ResultHits-before.ResultHits, st.ResultHits+st.ResultMisses-before.ResultHits-before.ResultMisses
	if lookups != uint64(8*workers) || hits < uint64(4*workers) || hits > uint64(8*workers-4) || st.Results.Entries != 4 {
		t.Fatalf("repeated operations by %d workers: %d result-cache hits in %d lookups over %d entries, want %d..%d in %d over 4",
			workers, hits, lookups, st.Results.Entries, 4*workers, 8*workers-4, 8*workers)
	}
}

// overCapStreams drains the unranked and ranked streams of the plan over db.
func overCapStreams(t *testing.T, plan *cxrpq.Plan, db *graph.DB, want *pattern.TupleSet) {
	// Streams run member after member on the fetching goroutine. The
	// operations evaluated the plan on copies of db, so
	// no answer of it is filed in db's store for a stream to be a window of.
	for _, page := range []int{1, 7, 4096} {
		for _, limit := range []int{0, (want.Len() + 1) / 2} {
			cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			rows := drainCursor(t, cur, page)
			got := rowSet(rows)
			if got.Len() != len(rows) {
				t.Fatalf("page=%d limit=%d: the stream repeats a row: %v", page, limit, rows)
			}
			if limit == 0 && !got.Equal(want) || limit > 0 && len(rows) != limit || cur.Truncated() {
				t.Fatalf("page=%d limit=%d: streamed %v (truncated=%v); want %v", page, limit, got.Sorted(), cur.Truncated(), want.Sorted())
			}
			for _, r := range rows {
				if !want.Contains(r.Tuple) {
					t.Fatalf("page=%d limit=%d: streamed %v, not an answer", page, limit, r.Tuple)
				}
			}
		}
	}
	// Ranked: one any-k root per member, all 2^11 of them.
	cur, err := plan.Bind(db).Stream(cxrpq.StreamOptions{Ranked: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainCursor(t, cur, 7)
	if got := rowSet(rows); !got.Equal(want) || got.Len() != len(rows) {
		t.Fatalf("ranked stream has %v; want %v", rows, want.Sorted())
	}
	for i, r := range rows {
		if r.Cost < 11 || i > 0 && r.Cost < rows[i-1].Cost {
			t.Fatalf("ranked stream: row %d = %v after %v", i, r, rows[max(i-1, 0)])
		}
	}
	// A stream whose deadline has passed yields a sound, flagged prefix.
	cur, err = plan.Bind(db).Stream(cxrpq.StreamOptions{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainCursor(t, cur, 7); !cur.Truncated() || len(rows) >= want.Len() {
		t.Fatalf("stream past its deadline: %d rows of %d, truncated=%v", len(rows), want.Len(), cur.Truncated())
	}
}

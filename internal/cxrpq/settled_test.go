package cxrpq_test

// A materialised answer is a settled set: its rows, each once, in
// lexicographic order, are the sorted view the server pages through — also
// when the bounded engine's mappings or a projection repeat rows, and when
// the budget cut the evaluation short.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
)

// pollCountdown is a context that reports done from its k-th poll on, so a
// budget over it cuts an evaluation at the same point on every run.
type pollCountdown struct {
	context.Context
	left atomic.Int32
	done chan struct{}
}

func (c *pollCountdown) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		return c.done
	}
	return nil
}

func cutAfterPolls(polls int32) *engine.Budget {
	c := &pollCountdown{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	c.left.Store(polls)
	return engine.NewBudget(c, time.Time{})
}

// checkSettled fails unless the answer lists every row once, in
// lexicographic order, and its sorted view is those rows themselves.
func checkSettled(t *testing.T, name string, res *pattern.TupleSet) {
	t.Helper()
	rows := res.Rows()
	for i := 1; i < rows.N; i++ {
		if slices.Compare(rows.Row(i-1), rows.Row(i)) >= 0 {
			t.Fatalf("%s: rows %d and %d are %v, %v: not strictly increasing", name, i-1, i, rows.Row(i-1), rows.Row(i))
		}
	}
	if sr := res.SortedRows(); sr.N != rows.N || rows.N > 0 && len(rows.Data) > 0 && &sr.Data[0] != &rows.Data[0] {
		t.Fatalf("%s: SortedRows is not the answer's own rows", name)
	}
}

func TestMaterialisedAnswersAreSettled(t *testing.T) {
	// $w = a and $w = aa both join every pair of the a-cycle's nodes:
	// bounded mappings whose answers overlap.
	overlap := graph.New()
	for i := range 6 {
		overlap.AddEdgeNames(fmt.Sprint("c", i), 'a', fmt.Sprint("c", (i+1)%6))
		overlap.AddEdgeNames(fmt.Sprint("c", i), 'a', fmt.Sprint("c", (i+2)%6))
		overlap.AddEdgeNames(fmt.Sprint("c", i), 'b', fmt.Sprint("c", (i+3)%6))
	}
	// Every source reaches every target through each of 80 middle nodes: a
	// projection that repeats each of its 64 rows 80 times, more rows than
	// a bag holds before it settles on its own.
	chain := graph.New()
	for m := range 80 {
		for i := range 8 {
			chain.AddEdgeNames(fmt.Sprint("s", i), 'a', fmt.Sprint("m", m))
			chain.AddEdgeNames(fmt.Sprint("m", m), 'b', fmt.Sprint("t", i))
		}
	}
	for _, c := range []struct {
		name, src string
		db        *graph.DB
		req       cxrpq.Request
		maxLen    int
	}{
		{"overlapping mappings", "ans(x, z)\nx y : $w{(a|b)+}\ny z : $w", overlap,
			cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}, 2},
		{"projecting chain", "ans(x, z)\nx y : a\ny z : b", chain, cxrpq.Request{Op: "eval"}, 1},
	} {
		q := cxrpq.MustParse(c.src)
		naive, err := cxrpq.EvalBoundedNaive(q, c.db, c.maxLen)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.EvalCXRPQ(q, c.db, c.maxLen)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(ref) || naive.Len() < 10 {
			t.Fatalf("%s: fixture drifted: naive %d rows, oracle %d", c.name, naive.Len(), ref.Len())
		}
		plan := cxrpq.MustPrepare(q)
		res, err := tuples(plan.Bind(freshCopy(c.db)).Do(c.req))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkSettled(t, c.name, res)
		if !res.Equal(naive) || !naive.Equal(res) || !res.Equal(ref) {
			t.Fatalf("%s: %v, naive %v", c.name, res.Sorted(), naive.Sorted())
		}
		partial := false
		for polls := int32(0); polls < 400; polls += 7 {
			req := c.req
			req.Budget = cutAfterPolls(polls)
			resp := plan.Bind(freshCopy(c.db)).Do(req)
			if resp.Err != nil && !errors.Is(resp.Err, engine.ErrCanceled) {
				t.Fatalf("%s cut after %d polls: %v", c.name, polls, resp.Err)
			}
			if resp.Tuples == nil {
				continue
			}
			checkSettled(t, fmt.Sprintf("%s cut after %d polls", c.name, polls), resp.Tuples)
			for _, tu := range resp.Tuples.All() {
				if !naive.Contains(tu) {
					t.Fatalf("%s cut after %d polls: unsound row %v", c.name, polls, tu)
				}
			}
			partial = partial || resp.Err != nil && resp.Tuples.Len() > 0
		}
		if !partial {
			t.Fatalf("%s: no budget cut left a non-empty partial answer", c.name)
		}
	}
}

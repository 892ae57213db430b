package ecrpq

// Tests of the join executor as one system: every driver × atom-source pair
// must agree on the same queries, ranked-ness must come from the plan and
// never from what a relation happens to carry, probes must honour the
// budget, and the merged group searches must not depend on which frontier
// they ran on.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// ranking is an enumeration's outcome in comparable form: the distinct
// tuples with their minimal cost, ordered by (cost, tuple).
type ranking []string

// collector accumulates yields into a ranking. With monotone set it also
// fails the test when costs ever decrease (the best-first contract).
type collector struct {
	t        *testing.T
	name     string
	monotone bool
	prev     int
	best     map[string]int
	tuples   map[string]pattern.Tuple
}

func newCollector(t *testing.T, name string, monotone bool) *collector {
	return &collector{t: t, name: name, monotone: monotone, best: map[string]int{}, tuples: map[string]pattern.Tuple{}}
}

// tupleOf copies a streamed row, which the enumeration reuses, into a tuple.
func tupleOf(row []int32) pattern.Tuple {
	tu := make(pattern.Tuple, len(row))
	for i, v := range row {
		tu[i] = int(v)
	}
	return tu
}

func (c *collector) yield(row []int32, cost int) bool {
	tu := tupleOf(row)
	if c.monotone && cost < c.prev {
		c.t.Fatalf("%s: cost %d emitted after %d", c.name, cost, c.prev)
	}
	c.prev = cost
	k := tu.Key()
	if old, ok := c.best[k]; !ok || cost < old {
		c.best[k] = cost
		c.tuples[k] = tu
	}
	return true
}

func (c *collector) ranking() ranking {
	keys := make([]string, 0, len(c.best))
	for k := range c.best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if c.best[a] != c.best[b] {
			return c.best[a] < c.best[b]
		}
		return fmt.Sprint(c.tuples[a]) < fmt.Sprint(c.tuples[b])
	})
	out := make(ranking, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprint(c.best[k], c.tuples[k])
	}
	return out
}

func drainAnyK(c *collector, p *plan) ranking {
	ak := NewAnyK(Options{})
	ak.addRoot(p)
	for {
		tu, cost, ok := ak.Next()
		if !ok {
			return c.ranking()
		}
		c.yield(tu, cost)
	}
}

func runPlan(c *collector, p *plan) ranking {
	p.stream(nil, c.yield)
	return c.ranking()
}

// TestExecutorDifferential runs one table of queries — chains, stars,
// cycles, self-loops, parallel atoms, pre-bound tuples, Equality and
// NFARelation groups — through both drivers (backtracking, best-first)
// over every atom source they run on (lazy probes, probes filled a frontier
// at a time, a bounded leaf's atoms, materialized relations) and requires the
// same tuple set from all of them
// unranked, and the same (cost, tuple) ranking from all of them ranked,
// under unit cost and under a pluggable weight.
func TestExecutorDifferential(t *testing.T) {
	sigma := []rune("ab")
	cases := []struct {
		name   string
		src    string
		groups []Group
		pre    map[string]int
	}{
		{name: "chain", src: "ans(x, z)\nx y : a+\ny z : b+"},
		{name: "chain3-projected", src: "ans(w, z)\nw x : a\nx y : b*\ny z : a|b"},
		{name: "star", src: "ans(x)\nx y1 : a\nx y2 : b\nx y3 : (a|b)a"},
		{name: "star-leaves", src: "ans(y1, y2)\nx y1 : a\nx y2 : b"},
		{name: "cycle", src: "ans(x, z)\nx y : a\ny z : a|b\nz x : b+"},
		{name: "self-loop", src: "ans(x, y)\nx x : (a|b)+\nx y : b"},
		{name: "parallel", src: "ans(x, y)\nx y : a+\nx y : (a|b)(a|b)"},
		{name: "cross-product", src: "ans(x, u)\nx y : ab\nu v : ba"},
		{name: "boolean", src: "ans()\nx y : a\ny z : b"},
		{name: "pre-bound", src: "ans(x, z)\nx y : a+\ny z : b+", pre: map[string]int{"x": 3}},
		{name: "pre-bound-both", src: "ans(x, z)\nx y : (a|b)+\ny z : (a|b)+", pre: map[string]int{"x": 1, "z": 2}},
		{name: "equality", src: "ans(x, y)\nx y : (a|b)+\nx y : (a|b)+",
			groups: []Group{{Edges: []int{0, 1}, Rel: &Equality{N: 2}}}},
		{name: "equality+atom", src: "ans(x, z)\nx y : a(a|b)*\nu z : (a|b)+\ny u : b",
			groups: []Group{{Edges: []int{0, 1}, Rel: &Equality{N: 2}}}},
		{name: "equal-length", src: "ans(x, y)\nx y : a+\nx z : b+",
			groups: []Group{{Edges: []int{0, 1}, Rel: EqualLength(2, sigma)}}},
		{name: "prefix", src: "ans(x, v)\nx y : (a|b)+\nu v : (a|b)+",
			groups: []Group{{Edges: []int{0, 1}, Rel: PrefixRelation(sigma)}}, pre: map[string]int{"u": 0}},
	}
	weights := map[string]engine.Weight{
		"unit": nil,
		"b=4": func(label rune) int32 {
			if label == 'b' {
				return 4
			}
			return 1
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		db := probeRandomDB(seed, 14, 40, "ab")
		for _, tc := range cases {
			g, err := pattern.ParseQuery(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			q := &Query{Pattern: g, Groups: tc.groups}
			for wname, w := range weights {
				for _, ranked := range []bool{false, true} {
					if w != nil && !ranked {
						continue // a weight only matters to ranked runs
					}
					name := func(s string) string {
						return fmt.Sprintf("seed %d %s %s ranked=%v: %s", seed, tc.name, wname, ranked, s)
					}
					lazy := func() *plan {
						ev, err := newEvaluator(q, db, Options{Ranked: ranked, Weight: w}, true)
						if err != nil {
							t.Fatal(err)
						}
						return ev.compile(tc.pre, false)
					}
					// The materializing configuration: the same plan over probe
					// atoms whose memos the frontier pass has filled.
					frontier := func() *plan {
						ev, err := newEvaluator(q, db, Options{Ranked: ranked, Weight: w}, false)
						if err != nil {
							t.Fatal(err)
						}
						p := ev.compile(tc.pre, false)
						ev.probeFrontiers(p)
						return p
					}
					got := map[string]ranking{
						"backtracking/lazy":     runPlan(newCollector(t, name("backtracking/lazy"), false), lazy()),
						"backtracking/frontier": runPlan(newCollector(t, name("backtracking/frontier"), false), frontier()),
					}
					if ranked {
						got["best-first/lazy"] = drainAnyK(newCollector(t, name("best-first/lazy"), true), lazy())
					}
					if len(tc.groups) == 0 {
						// The bounded engine's leaf: the pattern compiled once,
						// the query's atoms set on its edges.
						leaf := func() *Leaf {
							l := NewLeaf(Atoms(db), g, Join{Options: Options{Ranked: ranked, Weight: w}, Pre: tc.pre})
							for i, e := range g.Edges {
								if _, err := l.Set(i, atomOf(t, Atoms(db), e.Label, sigma)); err != nil {
									t.Fatal(err)
								}
							}
							return l
						}
						got["backtracking/leaf"] = runPlan(newCollector(t, name("backtracking/leaf"), false), leaf().plan(0))
						if ranked {
							got["best-first/leaf"] = drainAnyK(newCollector(t, name("best-first/leaf"), true), leaf().plan(0))
						} else {
							rels := make([]*EdgeRel, len(g.Edges))
							for i, e := range g.Edges {
								if rels[i], err = RelationFor(db, e.Label, sigma); err != nil {
									t.Fatal(err)
								}
							}
							// Any permutation of the edges is a plan, the reverse of
							// JoinOrder's too.
							order := PlanJoin(g, rels, tc.pre)
							slices.Reverse(order)
							p := newPlan(false, len(order))
							for _, ei := range order {
								p.addAtom(rels[ei], g.Edges[ei].From, g.Edges[ei].To, 0)
							}
							p.seal(g.Out, tc.pre, false)
							got["backtracking/rel/reversed"] = runPlan(newCollector(t, name("backtracking/rel/reversed"), false), p)
						}
					}
					want := got["backtracking/lazy"]
					for driver, r := range got {
						if fmt.Sprint(r) != fmt.Sprint(want) {
							t.Fatalf("%s\n got %v\nwant %v", name(driver), r, want)
						}
						if !ranked {
							for _, row := range r {
								if !strings.HasPrefix(row, "0 ") {
									t.Fatalf("%s: unranked run reported a cost: %s", name(driver), row)
								}
							}
						}
					}
				}
			}
		}
	}
}

// Ranked-ness is a field of the compiled plan, set by the caller. The atom
// store files no row with costs: a ranked leaf searches its own, and an
// unranked join over the same atoms must still leave the endpoints nothing
// reads unbound and report zero costs — the same yields whichever way the
// store was warmed. (Inferring ranked from the rows a join was handed made
// this join yield 3 600 rows of cost 2 instead of one.)
func TestJoinRankedComesFromCallerNotRelation(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "c a l%d\nc b m%d\n", i, i)
	}
	g := pattern.MustParseQuery("ans(x)\nx y : a\nx z : b")
	for _, warmRanked := range []bool{false, true} {
		db := graph.MustParse(sb.String()) // with a store of its own
		leaf := func(ranked bool) *Leaf {
			l := NewLeaf(Atoms(db), g, Join{Options: Options{Ranked: ranked}})
			for i, e := range g.Edges {
				if _, err := l.Set(i, atomOf(t, Atoms(db), e.Label, db.Alphabet())); err != nil {
					t.Fatal(err)
				}
			}
			return l
		}
		if warmRanked {
			leaf(true).stream(func([]int32, int) bool { return true })
		}
		if st := Atoms(db).Stats(); st.Rows.Entries != 0 {
			t.Fatalf("warmed ranked=%v: the store filed rows: %+v", warmRanked, st)
		}
		rows, costs := 0, 0
		leaf(false).stream(func(_ []int32, cost int) bool {
			rows++
			costs += cost
			return true
		})
		if rows != 1 || costs != 0 {
			t.Fatalf("store warmed ranked=%v: unranked join yielded %d rows, cost sum %d; want 1 row, cost 0",
				warmRanked, rows, costs)
		}
	}
}

// Every probe passes the evaluation budget to the kernel, in both
// directions, and a truncated hit list is never memoized. (The forward probe
// used to call the budget-less search: a cancelled request could not unwind
// inside it.)
func TestProbeHonoursBudget(t *testing.T) {
	const n = 3000
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "n%d a n%d\n", i, i+1)
	}
	db := graph.MustParse(sb.String())
	q, err := ParseQuery("ans(x, y)\nx y : a+", []rune("a"))
	if err != nil {
		t.Fatal(err)
	}
	first, last := 0, n // the interned ids of n0 and n<n>
	if db.Name(first) != "n0" || db.Name(last) != fmt.Sprintf("n%d", n) {
		t.Fatalf("unexpected interning: %s, %s", db.Name(first), db.Name(last))
	}
	spent := engine.NewBudget(nil, time.Now().Add(-time.Second))
	ev, err := newEvaluator(q, db, Options{Budget: spent}, true)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newEvaluator(q, db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		forward bool
		node    int
	}{{true, first}, {false, last}} {
		atom := &ev.atoms[0]
		if hits, _, _ := atom.probe(dir.node, dir.forward); len(hits) >= n {
			t.Fatalf("forward=%v: probe under a spent budget ran to completion (%d hits)", dir.forward, len(hits))
		}
		_, _, memoized := atom.memo(dir.forward).get(dir.node)
		if _, filed := storedRow(ev.store, atom.atom, dir.forward, dir.node); memoized || filed {
			t.Fatalf("forward=%v: truncated probe was memoized (%v) or filed (%v)", dir.forward, memoized, filed)
		}
		if hits, _, _ := fresh.atoms[0].probe(dir.node, dir.forward); len(hits) != n {
			t.Fatalf("forward=%v: unbudgeted probe found %d hits, want %d", dir.forward, len(hits), n)
		}
	}
}

// pollBudget is a budget that cancels at its k-th poll: the kernels poll at
// fixed points (per level), so "the budget fires during the sweep" repeats
// exactly.
type pollBudget struct {
	context.Context
	left atomic.Int32
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *pollBudget) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		return closedChan
	}
	return nil
}

// A frontier sweep cut by the budget leaves no row — not in the evaluator's
// memo, not in the atom store's table: a truncated row there would be read as
// complete by whoever probes that node next — and the run still ends with a
// sound subset of the answer and ErrCanceled. Each budget runs on a database
// of its own, so every row present was searched by the cut run itself.
func TestFrontierProbeHonoursBudget(t *testing.T) {
	const n = 200
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "n%d a n%d\n", i, i+1)
	}
	q, err := ParseQuery("ans(x, z)\nx y : a+\ny z : a+", []rune("a"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Eval(q, graph.MustParse(sb.String()))
	if err != nil || full.Len() == 0 {
		t.Fatalf("Eval = %v, %v", full, err)
	}
	rel, err := RelationFor(graph.MustParse(sb.String()), q.Pattern.Edges[0].Label, []rune("a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, polls := range []int32{0, 40, 400} { // before the sweep, inside its first batch, inside a later one
		db := graph.MustParse(sb.String())
		ctx := &pollBudget{Context: context.Background()}
		ctx.left.Store(polls)
		ev, err := newEvaluator(q, db, Options{Budget: engine.NewBudget(ctx, time.Time{})}, false)
		if err != nil {
			t.Fatal(err)
		}
		part := pattern.NewTupleSet()
		ev.stream(nil, func(row []int32, _ int) bool { part.AddRow(row); return true })
		if !errors.Is(ev.bud.Err(), engine.ErrCanceled) {
			t.Fatalf("%d polls: the budget did not fire", polls)
		}
		present := 0
		for i := range ev.atoms { // both atoms are a+: one relation is the reference of both
			for _, forward := range []bool{true, false} {
				for u := 0; u < n+1; u++ {
					want := rel.Forward(u)
					if !forward {
						want, _ = rel.backward(u)
					}
					memoRow, _, memoized := ev.atoms[i].memo(forward).get(u)
					stored, filed := storedRow(ev.store, ev.atoms[i].atom, forward, u)
					if memoized && !slices.Equal(memoRow, want) || filed && !slices.Equal(stored, want) {
						t.Fatalf("%d polls: atom %d forward=%v node %d holds a row of a truncated sweep", polls, i, forward, u)
					}
					if memoized || filed {
						present++
					}
				}
			}
		}
		if polls == 0 && present != 0 {
			t.Fatalf("0 polls: %d rows present, but the budget fired before any search", present)
		}
		for _, tu := range part.All() {
			if !full.Contains(tu) {
				t.Fatalf("%d polls: truncated run yielded %v, not an answer", polls, tu)
			}
		}
	}
}

// The backtracking driver polls its budget every runPollEvery descents, as
// TestAnyKBudgetStops states for the best-first one: after a cancellation in
// the middle of the join, lazy or materializing, at most that many further
// rows arrive (every row is a descent), every row is an answer, the run
// reports ErrCanceled, and no probe made after the cancellation is memoized.
func TestRunBudgetGrain(t *testing.T) {
	db := probeRandomDB(11, 300, 900, "ab")
	q, err := ParseQuery("ans(x, z)\nx y : a+\ny z : (a|b)+", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Eval(q, db)
	if err != nil || full.Len() < 10*runPollEvery {
		t.Fatalf("Eval = %d rows, %v: too few to cut", full.Len(), err)
	}
	for _, lazy := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		ev, err := newEvaluator(q, db, Options{Budget: engine.NewBudget(ctx, time.Time{})}, lazy)
		if err != nil {
			t.Fatal(err)
		}
		rows, after, memoAtCancel := 0, 0, 0
		ev.stream(nil, func(row []int32, _ int) bool {
			if !full.Contains(pattern.Tuple{int(row[0]), int(row[1])}) {
				t.Fatalf("lazy %v: row %v is not an answer", lazy, row)
			}
			switch rows++; {
			case rows == 3*runPollEvery+7:
				cancel()
				memoAtCancel = memoized(ev)
			case rows > 3*runPollEvery+7:
				after++
			}
			return true
		})
		cancel()
		if !errors.Is(ev.bud.Err(), engine.ErrCanceled) || rows < 3*runPollEvery+7 {
			t.Fatalf("lazy %v: the run ended after %d rows with %v, before the cancellation", lazy, rows, ev.bud.Err())
		}
		if after > runPollEvery {
			t.Fatalf("lazy %v: %d rows after the cancellation, want at most %d", lazy, after, runPollEvery)
		}
		if now := memoized(ev); now != memoAtCancel {
			t.Fatalf("lazy %v: %d probe rows memoized after the cancellation", lazy, now-memoAtCancel)
		}
	}
}

// A materializing run asks the kernel for whole frontiers: a 3-atom chain
// over n nodes costs at most ⌈n/64⌉ batches per step, and the join that
// follows finds every probe in the memo — no single-source search, no
// further batch.
func TestFrontierProbesInBatches(t *testing.T) {
	const n = 640
	db := probeRandomDB(7, n, 2*n, "abc")
	q, err := ParseQuery("ans(w, z)\nw x : a(a|b)*\nx y : b+\ny z : (b|c)c*", []rune("abc"))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(q, db, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.compile(nil, false)
	kernel := func() engine.KernelStats { return Atoms(db).Stats().Kernel }
	start := kernel().Batches
	ev.probeFrontiers(p)
	swept := kernel().Batches - start
	if max := uint64(len(p.steps) * ((n + 63) / 64)); swept == 0 || swept > max {
		t.Fatalf("the frontier pass ran %d kernel batches, want 1..%d", swept, max)
	}
	before, answers := memoized(ev), 0
	p.stream(nil, func([]int32, int) bool { answers++; return true })
	if answers == 0 {
		t.Fatal("the chain has no answers: the case is not exercised")
	}
	// Every probe miss memoizes its row, so an unchanged memo means the join
	// ran no search of its own.
	if after := memoized(ev); after != before {
		t.Fatalf("the join probed %d nodes the frontier pass had not", after-before)
	}
	if ran := kernel().Batches - start; ran != swept {
		t.Fatalf("the join ran %d more kernel batches", ran-swept)
	}
}

// A warm store skips the frontier pass. Once an eval has completed every
// table the plan reads — a scanned atom read again from a bound node, and a
// third atom answered from its support — a second materialising run's pass
// makes no store lookup (the join takes each table itself) and its join
// finds the same rows; on a cold store the pass runs, and its sweep of every
// node for the scan completes the store's table, which the memo then reads
// in place; a plan whose only cold table is its first stops the pass after it.
// After an insertion carried the entries stale, the check settles nothing.
func TestFrontierPassSkipsCompleteTables(t *testing.T) {
	db := randomDB(3, 200, 500, "ab")
	q, err := ParseQuery("ans(x, z)\nx y : a\ny z : a\nz w : b", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	materializing := func() (*evaluator, *plan) {
		ev, err := newEvaluator(q, db, Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		return ev, ev.compile(nil, false)
	}
	lookups := func() [2]uint64 {
		st := Atoms(db).Stats()
		return [2]uint64{st.Hits, st.Misses}
	}
	ev, p := materializing()
	if ev.lastFill(p) < 0 {
		t.Fatal("a cold store reports complete tables")
	}
	before := lookups()
	ev.probeFrontiers(p)
	if lookups() == before {
		t.Fatal("the pass made no lookup on a cold store: the case is not exercised")
	}
	// The scan asked for every node: its sweep completed the store's table,
	// which the memo reads in place, with no memo row of its own.
	if scan := p.steps[0].src.(*probeAtom); !scan.fwd.tab.complete() || scan.fwd.at != nil {
		t.Fatalf("the scan's memo holds %d rows of its own (a view of the complete table: %v)", len(scan.fwd.nodes), scan.fwd.tab.complete())
	}
	want, err := Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("the query has no answers: the case is not exercised")
	}

	ev, p = materializing()
	if last := ev.lastFill(p); last >= 0 {
		t.Fatalf("after a warm-up eval the store reports step %d's table incomplete", last)
	}
	before = lookups()
	ev.probeFrontiers(p)
	if after := lookups(); after != before {
		t.Fatalf("the pass over complete tables made lookups: hits, misses %v, were %v", after, before)
	}
	got := pattern.NewTupleSet()
	p.stream(nil, func(row []int32, _ int) bool {
		got.Append(row)
		return true
	})
	if got.Settle(); !got.Equal(want) {
		t.Fatalf("the join after a skipped pass found %v, want %v", got.Sorted(), want.Sorted())
	}

	// A plan whose first table is cold and whose second is complete: the
	// pass fills the first and stops, leaving the second for the join.
	q2, err := ParseQuery("ans(x, z)\nx y : b\ny z : a", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := newEvaluator(q2, db, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	p2 := ev2.compile(nil, false)
	if last := ev2.lastFill(p2); last != 0 {
		t.Fatalf("the pass would fill up to step %d, want 0", last)
	}
	ev2.probeFrontiers(p2)
	if second := p2.steps[1].src.(*probeAtom); second.fwd.tab.span != nil || second.fwd.at != nil {
		t.Fatal("the pass went on past the last step whose table it completes")
	}
	want2, err := Eval(q2, db)
	if err != nil {
		t.Fatal(err)
	}
	got2 := pattern.NewTupleSet()
	p2.stream(nil, func(row []int32, _ int) bool {
		got2.Append(row)
		return true
	})
	if got2.Settle(); want2.Len() == 0 || !got2.Equal(want2) {
		t.Fatalf("the join after a pass cut short found %v, want %v", got2.Sorted(), want2.Sorted())
	}

	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(1)}}}); err != nil {
		t.Fatal(err)
	}
	ev, p = materializing()
	stale := Atoms(db).Stats()
	if stale.Stale == 0 {
		t.Fatal("the insertion carried no entry stale: the case is not exercised")
	}
	if ev.lastFill(p) < 0 {
		t.Fatal("stale tables count as complete")
	}
	if st := Atoms(db).Stats(); st.Stale != stale.Stale || st.DeltaPasses != stale.DeltaPasses || st.Kernel != stale.Kernel || st.Hits != stale.Hits {
		t.Fatalf("the check settled or looked up entries: %+v, was %+v", st, stale)
	}
}

// The group searches run on a FIFO under unit cost and on a heap under a
// weight. Under the weight that is constantly 1 the heap must reproduce the
// FIFO exactly: the same end tuples in the same order with the same costs.
func TestGroupSearchUnitWeightMatchesFIFO(t *testing.T) {
	sigma := []rune("ab")
	one := engine.Weight(func(rune) int32 { return 1 })
	rels := map[string]Relation{
		"equality":     &Equality{N: 2},
		"equal-length": EqualLength(2, sigma),
		"prefix":       PrefixRelation(sigma),
		"hamming":      HammingAtMost(1, sigma),
	}
	g := pattern.MustParseQuery("ans(x, y)\nx y : (a|b)+\nu v : a(a|b)*")
	for seed := int64(1); seed <= 3; seed++ {
		db := probeRandomDB(seed, 12, 36, "ab")
		for name, rel := range rels {
			q := &Query{Pattern: g, Groups: []Group{{Edges: []int{0, 1}, Rel: rel}}}
			fifo, err := newEvaluator(q, db, Options{Ranked: true}, true)
			if err != nil {
				t.Fatal(err)
			}
			heap, err := newEvaluator(q, db, Options{Ranked: true, Weight: one}, true)
			if err != nil {
				t.Fatal(err)
			}
			for u := int32(0); int(u) < db.NumNodes(); u++ {
				for v := int32(0); int(v) < db.NumNodes(); v += 3 {
					a, b := expansionOf(fifo, 0, u, v), expansionOf(heap, 0, u, v)
					if a != b {
						t.Fatalf("seed %d %s from (%d,%d):\nfifo %s\nheap %s", seed, name, u, v, a, b)
					}
				}
			}
		}
	}
}

// expansionOf prints the expansion of group gi from a source tuple: the end
// tuples in search order, each with its cost when the evaluator is ranked.
func expansionOf(ev *evaluator, gi int, src ...int32) string {
	sc := ev.gscratch[gi]
	exp := sc.expand(ev, src)
	var sb strings.Builder
	for ti := exp.from; ti < exp.to; ti++ {
		fmt.Fprint(&sb, sc.end(ti), "@", costAt(sc.deps, int(ti)), " ")
	}
	return sb.String()
}

// Witness search rides the join order. Two parallel atoms, one of whose
// languages contains the other's, each get a word of their own.
func TestFindWitnessParallelAtoms(t *testing.T) {
	db := graph.MustParse("u a v\nu b v\nv b w\nu a w")
	q, err := ParseQuery("ans(x, z)\nx y : a\nx y : a|b\ny z : b", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	w, ok, err := FindWitness(q, db, nil, Options{})
	if err != nil || !ok {
		t.Fatalf("FindWitness = %v, %v", ok, err)
	}
	if w.Words[0] != "a" || (w.Words[1] != "a" && w.Words[1] != "b") || w.Words[2] != "b" {
		t.Fatalf("words %q do not match the edge labels", w.Words)
	}
	for ei, e := range q.Pattern.Edges {
		found := false
		for _, out := range db.Out(w.NodeOf[e.From]) {
			found = found || (string(out.Label) == w.Words[ei] && out.To == w.NodeOf[e.To])
		}
		if !found {
			t.Fatalf("edge %d: no %s-edge from %d to %d", ei, w.Words[ei], w.NodeOf[e.From], w.NodeOf[e.To])
		}
	}
	// Pre-binding the output tuple of that match must find it again.
	if _, ok, err := FindWitness(q, db, pattern.Tuple{w.NodeOf["x"], w.NodeOf["z"]}, Options{}); err != nil || !ok {
		t.Fatalf("FindWitness with the matched tuple pre-bound = %v, %v", ok, err)
	}
}

// BenchmarkProbeMemo: the probe memo's two paths on a 5000-node graph —
// "fill", a new evaluator's prefetch of every node, and "hit", the lookup the
// join makes once per binding. The store is the database's and outlives the
// evaluators, so only the first fill runs the batched kernel: every timed one
// takes the header of the complete row table it left (a view, no row
// copied), and "hit" reads that view.
func BenchmarkProbeMemo(b *testing.B) {
	db := probeRandomDB(3, 5000, 7000, "abc")
	q, err := ParseQuery("ans(x, y)\nx y : a(b|c)*", []rune("abc"))
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, db.NumNodes())
	for u := range all {
		all[u] = u
	}
	filled := func() *probeAtom {
		ev, err := newEvaluator(q, db, Options{}, false)
		if err != nil {
			b.Fatal(err)
		}
		ev.atoms[0].prefetch(all, true)
		return &ev.atoms[0]
	}
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filled()
		}
	})
	b.Run("hit", func(b *testing.B) {
		atom := filled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			atom.probe(i%len(all), true)
		}
	})
}

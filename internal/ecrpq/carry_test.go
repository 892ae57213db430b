package ecrpq

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// The carried facts: every fact of a settled entry must be the one a fresh
// store builds on a fresh copy of the graph, whatever windows it was carried
// over; a move runs no kernel search; and carrying never writes what an
// older view reads.

var carryLabels = []string{"a", "b", "ab|ba", "a|b", "(a|b)+", "a*b", "b?", "(ab)*", "ba+"}

var carrySigma = []rune("ab")

// copyDB returns a private copy of db at its revision: same node ids, same
// edges, a lineage and a store of its own.
func copyDB(db *graph.DB) *graph.DB {
	c := graph.New()
	for u := 0; u < db.NumNodes(); u++ {
		c.Node(db.Name(u))
	}
	for u := 0; u < db.NumNodes(); u++ {
		for _, e := range db.Out(u) {
			c.AddEdge(e.From, e.Label, e.To)
		}
	}
	return c
}

// refRow is the row of u over db searched from scratch: its targets when
// forward, else its sources.
func refRow(db *graph.DB, a *Atom, u int, forward bool) []int {
	c := a.cache
	if !forward {
		c = a.reverse()
	}
	row, _ := engine.Reach(db.Index(), c, u, forward, engine.ReachOpts{})
	return row
}

// checkSettled compares every fact of every settled entry of s with a fresh
// store's on a copy of s's graph.
func checkSettled(t *testing.T, s *AtomStore, where string) {
	t.Helper()
	n := s.db.NumNodes()
	ref := Atoms(copyDB(s.db))
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.m {
		if e.rev != s.atomFacts.rev {
			continue
		}
		name := strings.Split(key, "\x00")[0]
		a := atomOf(t, ref, e.atom.label, []rune(strings.Split(key, "\x00")[1]))
		for d := range e.sup {
			if e.sup[d] != nil {
				want, err := ref.support(a, d == 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for u := 0; u < n; u++ {
					if bitHas(e.sup[d], u) != bitHas(want, u) {
						t.Fatalf("%s: %s: support %d of node %d is %v, a fresh sweep says %v", where, name, d, u, bitHas(e.sup[d], u), bitHas(want, u))
					}
				}
			}
			tab := &e.rows[d]
			if tab.span == nil {
				continue
			}
			if len(tab.span) != n {
				t.Fatalf("%s: %s: row table %d over %d nodes, the graph has %d", where, name, d, len(tab.span), n)
			}
			filed := 0
			for u := 0; u < n; u++ {
				got, ok := tab.get(u)
				if !ok {
					continue
				}
				filed++
				if want := refRow(ref.db, a, u, d == 0); !rowEqual(got, want) {
					t.Fatalf("%s: %s: row %d of node %d is %v, fresh %v", where, name, d, u, got, want)
				}
			}
			if filed != tab.filed {
				t.Fatalf("%s: %s: row table %d counts %d rows, holds %d", where, name, d, tab.filed, filed)
			}
		}
		if e.exists != 0 {
			want, err := ref.PathExists(a, nil)
			if err != nil || want != (e.exists > 0) {
				t.Fatalf("%s: %s: carried verdict %d, fresh %v (%v)", where, name, e.exists, want, err)
			}
		}
	}
}

// readFacts looks up, in s, facts of a random half of the labels — settling
// their entries and filing what they lack: complete forward tables, alone
// and with their inversion, supports, partial and complete row tables in
// both directions, verdicts. The other labels' entries stay unread.
func readFacts(t *testing.T, s *AtomStore, r *testRNG) {
	t.Helper()
	n := s.db.NumNodes()
	for _, src := range carryLabels {
		if r.intn(2) == 0 {
			continue
		}
		a := atomOf(t, s, xregex.MustParse(src), carrySigma)
		for k := 0; k <= r.intn(3); k++ {
			var err error
			switch r.intn(8) {
			case 0:
				_, err = tableRel(s, a, nil)
			case 1:
				if p := leafAtom(s, a, nil); p.complete() == nil || !p.view(false) {
					t.Fatal("no complete table, or no inversion of it")
				}
			case 2, 3:
				_, err = s.support(a, r.intn(2) == 0, nil)
			case 4, 5:
				var nodes []int
				for u := 0; u < n; u++ {
					if r.intn(3) == 0 {
						nodes = append(nodes, u)
					}
				}
				s.rows(a, r.intn(2) == 0, nodes, nil)
			case 6:
				nodes := make([]int, n)
				for u := range nodes {
					nodes[u] = u
				}
				s.rows(a, r.intn(2) == 0, nodes, nil)
			case 7:
				_, err = s.PathExists(a, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// randomEdge returns an edge of db chosen at random, and false if it has none.
func randomEdge(db *graph.DB, r *testRNG) (graph.DeltaEdge, bool) {
	if db.NumEdges() == 0 {
		return graph.DeltaEdge{}, false
	}
	for {
		if out := db.Out(r.intn(db.NumNodes())); len(out) > 0 {
			e := out[r.intn(len(out))]
			return graph.DeltaEdge{From: db.Name(e.From), Label: e.Label, To: db.Name(e.To)}, true
		}
	}
}

// randomMove applies one random window to db: arrivals shaped like
// update_read's, inserts between existing nodes, removals, the removal of
// what the previous move added (pending), or a mixed batch. It returns what
// this move added.
func randomMove(t *testing.T, db *graph.DB, r *testRNG, step int, pending []graph.DeltaEdge) []graph.DeltaEdge {
	t.Helper()
	node := func() string { return db.Name(r.intn(db.NumNodes())) }
	label := func() rune { return carrySigma[r.intn(len(carrySigma))] }
	var d graph.Delta
	switch r.intn(5) {
	case 0: // arrivals: fresh nodes with one or two edges into the graph
		for j := 0; j <= r.intn(3); j++ {
			fresh := fmt.Sprintf("u%d_%d", step, j)
			for k := 0; k <= r.intn(2); k++ {
				d.Add = append(d.Add, graph.DeltaEdge{From: fresh, Label: label(), To: node()})
			}
		}
	case 1:
		for k := 0; k <= r.intn(3); k++ {
			d.Add = append(d.Add, graph.DeltaEdge{From: node(), Label: label(), To: node()})
		}
	case 2:
		for k := 0; k <= r.intn(2); k++ {
			if e, ok := randomEdge(db, r); ok && !slices.Contains(d.Del, e) {
				d.Del = append(d.Del, e)
			}
		}
	case 3: // the round trip: what the last move added goes again
		d.Del = pending
		if len(d.Del) == 0 {
			d.Add = []graph.DeltaEdge{{From: node(), Label: label(), To: fmt.Sprintf("v%d", step)}}
		}
	default:
		if e, ok := randomEdge(db, r); ok {
			d.Del = []graph.DeltaEdge{e}
		}
		d.Add = []graph.DeltaEdge{{From: node(), Label: label(), To: node()}}
	}
	if _, err := db.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	return d.Add
}

// TestCarriedFactsDifferential: random graphs under random window sequences,
// the store carried from snapshot view to snapshot view as the server's
// publish does, a random half of the entries read after each move — the rest
// left stale across several — and every settled fact compared with a fresh
// store's, a relation's backward lists — its reverse index, carried by the
// move when it was built — included. One seed runs a stretch of net-empty
// windows past the delta log's reach, so the entries the stretch shared are
// emptied when next read.
func TestCarriedFactsDifferential(t *testing.T) {
	t.Parallel()
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		r := &testRNG{s: uint64(seed)*0x9e3779b97f4a7c15 + 7}
		db := randomDB(int64(seed), 8+r.intn(10), 10+r.intn(25), "ab")
		s := Atoms(db.Snapshot().DB())
		readFacts(t, s, r)
		checkSettled(t, s, fmt.Sprintf("seed %d base", seed))
		var pending []graph.DeltaEdge
		for step := 0; step < 14; step++ {
			if seed == 3 && step == 6 {
				uncovered(t, db, &s)
			}
			pending = randomMove(t, db, r, step, pending)
			s = s.CarryTo(db.Snapshot().DB())
			where := fmt.Sprintf("seed %d step %d", seed, step)
			readFacts(t, s, r)
			checkSettled(t, s, where)
		}
		if st := s.Stats(); st.Retained+st.Extended == 0 || st.Kernel.Sources == 0 {
			t.Fatalf("seed %d: nothing was carried: %+v", seed, st)
		}
	}
}

// uncovered runs net-empty windows — each a snapshot of its own, sharing the
// facts of the one before — until the delta log no longer reaches the
// revision those facts describe, and checks that the next move empties them.
func uncovered(t *testing.T, db *graph.DB, s **AtomStore) {
	t.Helper()
	e, ok := randomEdge(db, &testRNG{s: 1})
	if !ok {
		t.Fatal("no edge to cycle")
	}
	base := (*s).atomFacts.rev
	for db.DeltaSince(base) != nil {
		for k := 0; k < 1000; k++ {
			if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{e}}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{e}}); err != nil {
				t.Fatal(err)
			}
		}
		if *s = (*s).CarryTo(db.Snapshot().DB()); (*s).atomFacts.rev != base {
			t.Fatal("a net-empty window did not share the facts")
		}
	}
	held := len((*s).m)
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: e.From, Label: e.Label, To: e.From}}}); err != nil {
		t.Fatal(err)
	}
	*s = (*s).CarryTo(db.Snapshot().DB())
	st := (*s).Stats()
	(*s).Verdicts() // settles every entry
	if after := (*s).Stats(); st.Stale != held || after.Stale != 0 || after.Supports.Entries+after.Rows.Entries+after.Verdicts.Entries != 0 {
		t.Fatalf("%d entries carried over an uncovered window, %d stale of them; settled: %+v", held, st.Stale, after)
	}
}

// TestCarryRunsNoSearch: a revision move copies entry headers and searches
// nothing, however many supports and complete row tables the store holds; the lineage's kernel counters move only when a settled fact
// is read.
func TestCarryRunsNoSearch(t *testing.T) {
	t.Parallel()
	db := randomDB(5, 30, 60, "ab")
	s := Atoms(db.Snapshot().DB())
	all := make([]int, db.NumNodes())
	for u := range all {
		all[u] = u
	}
	for _, src := range carryLabels {
		a := atomOf(t, s, xregex.MustParse(src), carrySigma)
		s.rows(a, false, all, nil) // searched: not the inversion of the forward table
		if _, err := s.support(a, false, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := tableRel(s, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.Rows.Complete != 2*len(carryLabels) || before.Supports.Entries < len(carryLabels) {
		t.Fatalf("the store holds too little to carry: %+v", before)
	}
	for step := 0; step < 3; step++ {
		randomMove(t, db, &testRNG{s: uint64(step)}, step, nil)
		s = s.CarryTo(db.Snapshot().DB())
		if st := s.Stats(); st.Kernel != before.Kernel || st.Stale != len(carryLabels) {
			t.Fatalf("move %d: the kernel ran %+v, was %+v; %d of %d entries stale", step, st.Kernel, before.Kernel, st.Stale, len(carryLabels))
		}
	}
	a := atomOf(t, s, xregex.MustParse("(a|b)+"), carrySigma)
	if _, err := tableRel(s, a, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Kernel == before.Kernel || st.Stale != len(carryLabels)-1 {
		t.Fatalf("reading a carried table settled nothing: %+v, %d stale", st.Kernel, st.Stale)
	}
	checkSettled(t, s, "after three moves")
}

// TestSettleHonorsBudget: the first read after a move settles under the
// reader's budget. A reader whose deadline has passed is cut at once — every
// kind of lookup — installs nothing and leaves every entry stale, and a reader
// waiting on another one's settle is cut when its own deadline passes. A
// reader with no budget then settles each entry to what a fresh store builds,
// and with the last stale entry of a revision its window leaves the store's
// byte account.
func TestSettleHonorsBudget(t *testing.T) {
	t.Parallel()
	db := randomDB(7, 60, 150, "ab")
	s := Atoms(db.Snapshot().DB())
	all := make([]int, db.NumNodes())
	for u := range all {
		all[u] = u
	}
	var atoms []*Atom
	for _, src := range carryLabels {
		a := atomOf(t, s, xregex.MustParse(src), carrySigma)
		s.rows(a, false, all, nil)
		if _, err := s.support(a, true, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := tableRel(s, a, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PathExists(a, nil); err != nil {
			t.Fatal(err)
		}
		atoms = append(atoms, a)
	}
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{
		{From: "n1", Label: 'a', To: "n2"}, {From: "n3", Label: 'b', To: "n4"}, {From: "n5", Label: 'a', To: "new"},
	}}); err != nil {
		t.Fatal(err)
	}
	s = s.CarryTo(db.Snapshot().DB())
	moved := s.Stats()
	stale := moved.Stale
	if stale != len(atoms) {
		t.Fatalf("%d of %d entries stale after the move", stale, len(atoms))
	}
	expired := engine.NewBudget(nil, time.Now().Add(-time.Second))
	for _, a := range atoms {
		if _, err := tableRel(s, a, expired); !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("%s: a complete table read past its deadline: %v, want ErrCanceled", a.key, err)
		}
		if _, err := s.support(a, false, expired); !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("%s: a support read past its deadline: %v, want ErrCanceled", a.key, err)
		}
		if _, err := s.PathExists(a, expired); !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("%s: a verdict read past its deadline: %v, want ErrCanceled", a.key, err)
		}
		if _, _, cut := s.rows(a, true, all, expired); cut == nil {
			t.Fatalf("%s: a row read past its deadline was not cut", a.key)
		}
	}
	if st := s.Stats(); st.Stale != stale || st.Extended+st.Retained != 0 || st.Kernel.Edges != moved.Kernel.Edges {
		t.Fatalf("reads past their deadline settled entries: %d stale, was %d; the kernel scanned %d edges",
			st.Stale, stale, st.Kernel.Edges-moved.Kernel.Edges)
	}

	// A reader waiting on another's settle is cut by its own deadline.
	a := atoms[0]
	s.mu.Lock()
	e, done := s.m[a.key], make(chan struct{})
	e.settling = done
	s.mu.Unlock()
	start := time.Now()
	_, err := tableRel(s, a, engine.NewBudget(nil, start.Add(20*time.Millisecond)))
	if waited := time.Since(start); !errors.Is(err, engine.ErrCanceled) || waited < 20*time.Millisecond || waited > 10*time.Second {
		t.Fatalf("a reader waiting on a settle: %v after %v, want ErrCanceled after its 20ms deadline", err, waited)
	}
	s.mu.Lock()
	e.settling = nil
	s.mu.Unlock()
	close(done)

	if len(s.wins) == 0 {
		t.Fatal("no window filed for the stale entries")
	}
	s.Verdicts() // settles every entry
	checkSettled(t, s, "after the cut reads")
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, e := range s.m {
		sum += e.size()
	}
	if len(s.wins) != 0 || len(s.stale) != 0 || s.bytes != sum {
		t.Fatalf("all settled: %d windows and %d stale revisions left, %d bytes accounted for entries of %d", len(s.wins), len(s.stale), s.bytes, sum)
	}
}

// TestCarriedViewsIsolated: readers pinned to a view keep filing probe rows
// in its store while two successors, carried from that same store over
// different windows, settle the same entries concurrently; every view answers
// what a fresh copy of its graph answers. Under -race this catches an arena,
// a span or a bitset shared across stores and written.
func TestCarriedViewsIsolated(t *testing.T) {
	t.Parallel()
	db := randomDB(11, 40, 80, "ab")
	v0 := db.Snapshot().DB()
	s0 := Atoms(v0)
	r := &testRNG{s: 99}
	half := make([]int, 0, v0.NumNodes())
	all := make([]int, 0, v0.NumNodes())
	for u := 0; u < v0.NumNodes(); u++ {
		if all = append(all, u); u%2 == 0 {
			half = append(half, u)
		}
	}
	for i, src := range carryLabels {
		a := atomOf(t, s0, xregex.MustParse(src), carrySigma)
		nodes := all
		if i%2 == 1 {
			nodes = half // a table still being filled
		}
		s0.rows(a, true, nodes, nil)
		s0.rows(a, false, nodes, nil)
		if _, err := s0.support(a, i%3 == 0, nil); err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			if _, err := tableRel(s0, a, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	randomMove(t, db, r, 0, nil)
	v1 := db.Snapshot().DB()
	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{mustEdge(t, db, r)}, Add: []graph.DeltaEdge{{From: "x", Label: 'a', To: db.Name(0)}}}); err != nil {
		t.Fatal(err)
	}
	v2 := db.Snapshot().DB()
	views := []*AtomStore{s0, s0.CarryTo(v1), s0.CarryTo(v2)}

	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		s := views[g%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &testRNG{s: uint64(g) + 1}
			ref := copyDB(s.db)
			refAtoms := Atoms(ref)
			for round := 0; round < 4; round++ {
				for _, src := range carryLabels {
					a := atomOf(t, s, xregex.MustParse(src), carrySigma)
					ra := atomOf(t, refAtoms, xregex.MustParse(src), carrySigma)
					forward := r.intn(2) == 0
					nodes := all[:0:0]
					for u := 0; u < s.db.NumNodes(); u++ {
						if r.intn(3) == 0 {
							nodes = append(nodes, u)
						}
					}
					view, _, _ := s.rows(a, forward, nodes, nil)
					for _, u := range nodes {
						got, _ := view.get(u)
						if want := refRow(ref, ra, u, forward); !rowEqual(got, want) {
							t.Errorf("view at %d: %s: row of %d is %v, fresh %v", s.rev, src, u, got, want)
						}
					}
					targets := r.intn(2) == 0
					sup, err := s.support(a, targets, nil)
					want, err2 := refAtoms.support(ra, targets, nil)
					if err != nil || err2 != nil || !slices.Equal(sup, want) {
						t.Errorf("view at %d: %s: support (targets %v) of %d nodes, fresh %d", s.rev, src, targets, len(bitList(sup)), len(bitList(want)))
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range views {
		checkSettled(t, s, fmt.Sprintf("view at %d", s.rev))
	}
}

func mustEdge(t *testing.T, db *graph.DB, r *testRNG) graph.DeltaEdge {
	e, ok := randomEdge(db, r)
	if !ok {
		t.Fatal("no edge")
	}
	return e
}

// The versions of a row table share one arena, and its tail is claimed once:
// the first successor of a table appends in place, while a second successor
// of the same table, or the old table filing more rows, copies what it reads
// into an arena of its own — and no version's rows change under another's.
func TestRowTableArenaShared(t *testing.T) {
	const n = 8
	stale := rowTable{arena: make([]int, 0, 64), tail: new(atomic.Int64), span: make([]uint64, n)}
	stale.fill(n, []int{0, 1}, [][]int{{1, 2}, {3}})
	check := func(name string, tab rowTable, want map[int][]int) {
		t.Helper()
		for u := range n {
			got, ok := tab.get(u)
			w, wok := want[u]
			if ok != wok || !slices.Equal(got, w) {
				t.Errorf("%s: row %d is %v (filed %v), want %v (filed %v)", name, u, got, ok, w, wok)
			}
		}
	}
	first := stale.clone(n)
	first.file(2, []int{4, 5})
	if &first.arena[0] != &stale.arena[0] {
		t.Error("the first successor copied the arena")
	}
	second := stale.clone(n)
	second.file(3, []int{6})
	if &second.arena[0] == &stale.arena[0] {
		t.Error("the second successor filed into the shared arena")
	}
	old := stale // a reader at the old revision files rows
	old.span = slices.Clone(stale.span)
	old.fill(n, []int{4, 5}, [][]int{{7}, {0, 1}})
	if &old.arena[0] == &stale.arena[0] {
		t.Error("the old table filed into the arena its successor grew")
	}
	base := map[int][]int{0: {1, 2}, 1: {3}}
	check("stale", stale, base)
	check("first", first, map[int][]int{0: {1, 2}, 1: {3}, 2: {4, 5}})
	check("second", second, map[int][]int{0: {1, 2}, 1: {3}, 3: {6}})
	check("old", old, map[int][]int{0: {1, 2}, 1: {3}, 4: {7}, 5: {0, 1}})
}

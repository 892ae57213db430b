package cxrpq_test

// The atom store belongs to the database revision, not to the session: these
// tests hold sessions of different texts to what that promises. A session
// bound to freshCopy of a view shares nothing with the sessions under test and
// is the oracle throughout.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// storeText is one query text and how it is evaluated: by the fragment
// dispatch when k < 0, under CXRPQ^≤k otherwise.
type storeText struct {
	src string
	k   int
}

func (x storeText) eval(s *cxrpq.Session) (*pattern.TupleSet, error) {
	if x.k < 0 {
		return tuples(s.Do(cxrpq.Request{Op: "eval"}))
	}
	return tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: x.k}))
}

// TestAtomStoreSharedDifferential: eight texts — CRPQs, simple and vstar-free
// queries, and queries only the bounded semantics evaluates, at k = 1 and 2 —
// are evaluated concurrently, at every one of six revisions (insert-only
// batches, one interning nodes, a removal, a new label), through sessions
// forked from view to view over one store per view, the removal's carried
// like the inserts'. Every answer is the one a private fresh copy of the
// database at that revision gives.
func TestAtomStoreSharedDifferential(t *testing.T) {
	texts := []storeText{
		{"ans(x, z)\nx y : a+\ny z : b", -1},
		{"ans(x)\nx y : (a|b)+\ny z : a", -1},
		{"ans(x, z)\nx y : $w{a|b}b*\ny z : $w", -1},
		{"ans(x, y)\nx y : $w{a|b}\ny z : $w a", -1},
		{"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v", -1},
		{"ans(y)\nx y : $w{a|b}|$v{ab}\ny z : ($w|$v)b?", -1},
		{"ans(x, y)\nx y : $w{a|b}\ny z : $w+", 1},
		{"ans(p, q)\np m : $x{a|b}\nm q : ($x|b)+", 2},
	}
	db := workload.Random(23, 14, 30, "ab")
	deltas := []graph.Delta{
		{}, // the base revision
		{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(5)}, {From: db.Name(5), Label: 'b', To: db.Name(9)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(3), Label: 'b', To: "fresh0"}, {From: "fresh0", Label: 'a', To: db.Name(1)}}},
		{Del: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(5)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(2), Label: 'c', To: db.Name(4)}}},
		{Add: []graph.DeltaEdge{{From: db.Name(7), Label: 'a', To: db.Name(2)}}},
	}
	sessions := make([]*cxrpq.Session, len(texts))
	for rev, delta := range deltas {
		if _, err := db.ApplyDelta(delta); err != nil {
			t.Fatalf("revision %d: %v", rev, err)
		}
		view := db.Snapshot().DB()
		for i, x := range texts {
			if rev == 0 {
				sessions[i] = cxrpq.MustPrepare(cxrpq.MustParse(x.src)).Bind(view)
			} else {
				sessions[i] = sessions[i].Fork(view)
			}
		}
		var wg sync.WaitGroup
		for i, x := range texts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := x.eval(sessions[i])
				if err != nil {
					t.Errorf("revision %d, %q: %v", rev, x.src, err)
					return
				}
				want, err := x.eval(sessions[i].Plan().Bind(freshCopy(view)))
				if err != nil || !got.Equal(want) {
					t.Errorf("revision %d, %q: %v on the shared store, %v on a fresh copy (%v)", rev, x.src, got.Sorted(), want.Sorted(), err)
				}
			}()
		}
		wg.Wait()
		if st := ecrpq.Atoms(view).Stats(); st.Hits == 0 || st.Rows.Complete+st.Supports.Entries == 0 {
			t.Fatalf("revision %d: the view's store was not shared: %+v", rev, st)
		}
	}
	if st := ecrpq.Atoms(db.Snapshot().DB()).Stats(); st.DeltaPasses != 4 || st.FullRebuilds != 2 {
		t.Fatalf("three insert-only moves and a removal carried, a new label and the first bind fresh: %d delta passes, %d fresh starts", st.DeltaPasses, st.FullRebuilds)
	}
}

// TestAtomStoreMaintainedOnce: seven pooled sessions forked onto the next
// view cost one delta pass, not seven — every entry carried, and settled
// once when first read — and a reader parked on the old view keeps the epoch
// it was reading.
func TestAtomStoreMaintainedOnce(t *testing.T) {
	db, deltas := workload.MutationStream(5, 40, 1, 4)
	v0 := db.Snapshot().DB()
	var pool []*cxrpq.Session
	for i := 0; i < 7; i++ {
		q := cxrpq.MustParse(fmt.Sprintf("ans(x, y)\nx y : $w{a|b}%s\ny z : $w+\n", []string{"", "a", "b", "a?", "b?", "a*", "b*"}[i]))
		s := cxrpq.MustPrepare(q).Bind(v0)
		if _, err := tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
			t.Fatal(err)
		}
		pool = append(pool, s)
	}
	parked, before := ecrpq.Atoms(v0), ecrpq.Atoms(v0).Stats()
	if before.Supports.Entries == 0 || before.Rows.Complete == 0 || before.DeltaPasses != 0 {
		t.Fatalf("the pool left no supports or complete tables to maintain: %+v", before)
	}
	if _, err := db.ApplyDelta(deltas[0]); err != nil {
		t.Fatal(err)
	}
	v1 := db.Snapshot().DB()
	for i, s := range pool {
		f := s.Fork(v1)
		if st := storeStats(f); st.DeltaPasses != 1 || st.FullRebuilds != 1 {
			t.Fatalf("fork %d: %d delta passes over the store and %d fresh starts; want one each", i, st.DeltaPasses, st.FullRebuilds)
		}
		got, err := tuples(f.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
		want, werr := tuples(s.Plan().Bind(freshCopy(v1)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
		if err != nil || werr != nil || !got.Equal(want) {
			t.Fatalf("fork %d: %v (%v), a fresh copy has %v (%v)", i, got.Sorted(), err, want.Sorted(), werr)
		}
	}
	next := ecrpq.Atoms(v1).Stats()
	if next.Retained+next.Extended+uint64(next.Stale) != uint64(before.Automata.Entries) || next.Stale == before.Automata.Entries {
		t.Fatalf("of %d entries carried, %d retained + %d extended and %d stale", before.Automata.Entries, next.Retained, next.Extended, next.Stale)
	}
	// The old view's store is the object it was, with what it held.
	if again := ecrpq.Atoms(v0); again != parked {
		t.Fatal("the parked view lost its store")
	}
	if st := parked.Stats(); st.Supports != before.Supports || st.Rows != before.Rows || st.Verdicts != before.Verdicts {
		t.Fatalf("the parked epoch changed under its readers: %+v, was %+v", st, before)
	}
	for i, s := range pool {
		got, err := tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
		want, werr := tuples(s.Plan().Bind(freshCopy(v0)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
		if err != nil || werr != nil || !got.Equal(want) {
			t.Fatalf("parked session %d: %v (%v), a fresh copy of its view has %v (%v)", i, got.Sorted(), err, want.Sorted(), werr)
		}
	}
}

// TestAtomStoreCutBuildPoisonsNobody: a request whose budget runs out in the
// middle of a complete table's sweep gets ErrCanceled and leaves nothing in
// the store; the next request, of another text that instantiates the same
// labels, sweeps the whole table and answers like a fresh copy.
func TestAtomStoreCutBuildPoisonsNobody(t *testing.T) {
	db := workload.Random(3, 1200, 3600, "ab") // x(a|b)+ relates ~n² pairs: tens of milliseconds to build
	db.Index()
	spent := engine.NewBudget(nil, time.Time{})
	spent.Stop()
	// stored asks the store for the big tables without letting it sweep any.
	stored := func() (n int) {
		for _, label := range []string{"a(a|b)+", "b(a|b)+"} {
			text := "ans(x, y)\nx y : " + label
			err := leafSet(db, text, []rune("ab"), spent)
			if err == nil {
				res, herr := leafJoin(db, text, []rune("ab"))
				whole, werr := ecrpq.RelationFor(db, xregex.MustParse(label), []rune("ab"))
				if herr != nil || werr != nil {
					t.Fatal(herr, werr)
				}
				held, want := res.Len(), 0
				for u := range db.NumNodes() {
					want += len(whole.Forward(u))
				}
				if held != want {
					t.Fatalf("the store holds %d pairs of %s, the relation has %d", held, label, want)
				}
				n++
			} else if !errors.Is(err, engine.ErrCanceled) {
				t.Fatal(err)
			}
		}
		return n
	}
	a := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, z)\nx y : $w{a|b}(a|b)+\ny z : $w b")).Bind(db)
	start := time.Now()
	res := a.Do(cxrpq.Request{Op: "bool", Semantics: "bounded", K: 1,
		Budget: engine.NewBudget(context.Background(), start.Add(time.Millisecond))})
	if !errors.Is(res.Err, engine.ErrCanceled) || res.OK {
		t.Fatalf("request A under a 1 ms budget: OK=%v, %v after %v; want ErrCanceled", res.OK, res.Err, time.Since(start))
	}
	if n := stored(); n != 0 {
		t.Fatalf("the cut request installed %d of its tables", n)
	}
	bq := cxrpq.MustParse("ans()\nu x : b?\nx y : $w{a|b}(a|b)+\ny z : $w b")
	got, err := tuples(cxrpq.MustPrepare(bq).Bind(db).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
	want, werr := tuples(cxrpq.MustPrepare(bq).Bind(freshCopy(db)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
	if err != nil || werr != nil || !got.Equal(want) {
		t.Fatalf("request B after the cut one: %v (%v), a fresh copy says %v (%v)", got.Sorted(), err, want.Sorted(), werr)
	}
	if n := stored(); n != 2 {
		t.Fatalf("request B left %d of the two tables in the store: the case is not exercised", n)
	}
}

// TestAtomStoreKeyedByAlphabet: every fact is filed under its label and its
// alphabet. On one snapshot, a query over the database's Σ and one that
// mentions a letter the database lacks — so [^a] is another language, another
// automaton — are evaluated interleaved, twice each, and each answers like its
// private fresh evaluation; the store holds their facts apart.
func TestAtomStoreKeyedByAlphabet(t *testing.T) {
	db := workload.Random(9, 12, 30, "ab")
	texts := []storeText{
		{"ans(x, y)\nx y : $w{a|b}[^a]+\ny z : [^a]$w", 1},   // Σ = {a, b}
		{"ans(x, y)\nx y : $w{a|b}[^a]+\ny z : [^a]$w|c", 1}, // Σ = {a, b, c}
		{"ans(x)\nx y : [^a]+", -1},
		{"ans(x)\nx y : [^a]+\nx z : [^a]+|c", -1},
	}
	for round := 0; round < 2; round++ {
		for _, x := range texts {
			plan := cxrpq.MustPrepare(cxrpq.MustParse(x.src))
			got, err := x.eval(plan.Bind(db))
			want, werr := x.eval(plan.Bind(freshCopy(db)))
			if err != nil || werr != nil || !got.Equal(want) {
				t.Fatalf("round %d, %q: %v (%v), privately %v (%v)", round, x.src, got.Sorted(), err, want.Sorted(), werr)
			}
		}
	}
	verdicts := map[string]int{} // label print -> alphabets it was asked under
	for key := range ecrpq.Atoms(db).Verdicts() {
		for i, r := range key {
			if r == 0 {
				verdicts[key[:i]]++
			}
		}
	}
	shared := 0
	for _, alphabets := range verdicts {
		if alphabets > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no relaxed label was asked about under both alphabets: %v", verdicts)
	}
}

// TestAtomStoreBoundedSharesAtoms: a bounded run files the atom of every
// label it instantiates in the database's store, and a CRPQ over the same
// database that mentions one of those labels evaluates over that atom — it
// compiles nothing.
func TestAtomStoreBoundedSharesAtoms(t *testing.T) {
	db := workload.Random(5, 12, 30, "ab")
	store := ecrpq.Atoms(db)
	bounded := storeText{"ans(x, z)\nx y : $w{a|b}b\ny z : $w", 1}
	if _, err := bounded.eval(cxrpq.MustPrepare(cxrpq.MustParse(bounded.src)).Bind(db)); err != nil {
		t.Fatal(err)
	}
	held := store.Stats().Automata.Entries
	ab, err := store.Atom(xregex.MustParse("ab"), db.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Automata.Entries; n != held {
		t.Fatalf("the bounded run did not file the atom of its instantiated label ab: %d atoms, %d after asking for it", held, n)
	}
	crpq := storeText{"ans(x, y)\nx y : ab", -1}
	if _, err := crpq.eval(cxrpq.MustPrepare(cxrpq.MustParse(crpq.src)).Bind(db)); err != nil {
		t.Fatal(err)
	}
	again, err := store.Atom(xregex.MustParse("ab"), db.Alphabet())
	if n := store.Stats().Automata.Entries; err != nil || again != ab || n != held {
		t.Fatalf("the CRPQ compiled its own atom: %p, the bounded run's %p; %d atoms, %d before (%v)", again, ab, n, held, err)
	}
}

// TestAtomStoreBoundedTextsShareTables: two different bounded texts over one
// revision that instantiate the same label cost one kernel sweep for it. The
// first text's leaves sweep the complete table of a(a|b)* (and of b(a|b)*);
// the second text instantiates only a(a|b)* with both endpoints read — its
// other image, ε, cuts the definition and prunes — so its run reads the
// stored table in place: no store miss and no kernel source, and both answer
// like a fresh copy.
func TestAtomStoreBoundedTextsShareTables(t *testing.T) {
	db := workload.Random(3, 40, 120, "ab")
	store := ecrpq.Atoms(db)
	texts := []storeText{
		{"ans(x, y)\nx y : $w{a|b}(a|b)*", 1},
		{"ans(u, v)\nu v : $z{a}(a|b)*", 1},
	}
	var before ecrpq.AtomStats
	for i, x := range texts {
		before = store.Stats()
		plan := cxrpq.MustPrepare(cxrpq.MustParse(x.src))
		got, err := x.eval(plan.Bind(db))
		want, werr := x.eval(plan.Bind(freshCopy(db)))
		if err != nil || werr != nil || !got.Equal(want) || got.Len() == 0 {
			t.Fatalf("%q: %v (%v), a fresh copy %v (%v)", x.src, got.Sorted(), err, want.Sorted(), werr)
		}
		if st := store.Stats(); i == 0 && st.Kernel.Sources < uint64(2*db.NumNodes()) {
			t.Fatalf("%q swept %d sources, want the two tables of %d nodes each", x.src, st.Kernel.Sources-before.Kernel.Sources, db.NumNodes())
		}
	}
	if st := store.Stats(); st.Misses != before.Misses || st.Kernel.Sources != before.Kernel.Sources || st.Hits == before.Hits {
		t.Fatalf("the second text searched again: %d misses and %d kernel sources more, %d hits", st.Misses-before.Misses, st.Kernel.Sources-before.Kernel.Sources, st.Hits-before.Hits)
	}
	if err := leafSet(db, "ans(x, y)\nx y : a(a|b)*", db.Alphabet(), engine.NewBudget(nil, time.Now().Add(-time.Second))); err != nil {
		t.Fatalf("the table of a(a|b)* is not complete in the store: %v", err)
	}
}

package cxrpq_test

// MVCC snapshot semantics of the session layer: Session.Fork carries the
// atom store onto a successor graph.Snapshot view without touching the
// receiver, so readers pinned to the old session/view never observe the
// mutation — while the forked session answers exactly like a fresh bind on
// the new view, at delta-maintenance cost for insert-only windows.

import (
	"sync"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

func TestSessionForkSnapshotIsolation(t *testing.T) {
	db := graph.MustParse("u a v\nu a w\nv b w\nw a u\n")
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")
	plan := cxrpq.MustPrepare(q)
	const k = 1

	snap1 := db.Snapshot()
	s1 := plan.Bind(snap1.DB())
	base, err := tuples(s1.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatal(err)
	}

	// Insert-only write: fork onto the new snapshot.
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{
		{From: "v", Label: 'a', To: "u"}, {From: "x", Label: 'b', To: "u"},
	}}); err != nil {
		t.Fatal(err)
	}
	snap2 := db.Snapshot()
	s2 := s1.Fork(snap2.DB())

	// The old session, pinned to the old view, answers as before.
	again, err := tuples(s1.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(base) {
		t.Fatal("pinned session observed a later revision")
	}
	// The fork agrees with a bind to a fresh copy of the new view.
	want, err := tuples(plan.Bind(freshCopy(snap2.DB())).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tuples(s2.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("forked session diverged: %d tuples, want %d", got.Len(), want.Len())
	}
	if got.Equal(base) {
		t.Fatal("test vacuous: the delta did not change the answer")
	}
	st := storeStats(s2)
	if st.DeltaPasses != 1 || st.FullRebuilds != 1 {
		t.Fatalf("insert-only fork should delta-maintain (applies=1, rebuilds=1), got %+v", st)
	}
	if st.Retained+st.Extended == 0 {
		t.Fatalf("fork maintained no relation entries: %+v", st)
	}

	// A removal window is carried like an insertion.
	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{
		{From: "x", Label: 'b', To: "u"},
	}}); err != nil {
		t.Fatal(err)
	}
	snap3 := db.Snapshot()
	s3 := s2.Fork(snap3.DB())
	want3, err := tuples(plan.Bind(freshCopy(snap3.DB())).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatal(err)
	}
	got3, err := tuples(s3.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
	if err != nil {
		t.Fatal(err)
	}
	if !got3.Equal(want3) {
		t.Fatal("post-removal fork diverged from a fresh bind")
	}
	if st3 := storeStats(s3); st3.DeltaPasses != 2 || st3.FullRebuilds != 1 {
		t.Fatalf("removal fork should delta-maintain (applies=2, rebuilds=1), got %+v", st3)
	}

	// Forking without an intervening mutation shares the store, answers
	// included.
	s4 := s3.Fork(snap3.DB())
	hits := storeStats(s4).ResultHits
	if _, err := tuples(s4.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k})); err != nil {
		t.Fatal(err)
	}
	if storeStats(s4).ResultHits != hits+1 {
		t.Fatal("same-revision fork did not share the answer")
	}
}

// The bounded engine prunes a prefix when a Σ*-relaxed atom label matches no
// path of D, and the session remembers that verdict. An insertion can only
// turn "no" into "yes": ApplyDelta and Fork must carry the positive verdicts
// over and forget the negative ones, or the stale "no" keeps pruning a
// prefix that has answers now.
func TestPathVerdictsAcrossInserts(t *testing.T) {
	// cc$w relaxes to ccΣ*, and the graph has c-edges but no cc path until
	// n3 -c-> n5 arrives; then n1 -a-> n2 -c-> n3 -c-> n5 -a-> n6 matches.
	const base = "n1 a n2\nn2 c n3\nn4 c n5\nn5 a n6\n"
	q := cxrpq.MustParse("ans(x, z)\nx y : $w{a|b}\ny z : cc$w\n")
	insert := graph.Delta{Add: []graph.DeltaEdge{{From: "n3", Label: 'c', To: "n5"}}}
	plan := cxrpq.MustPrepare(q)
	const k = 1

	negatives := func(s *cxrpq.Session) (n int) {
		for _, v := range s.PathVerdicts() {
			if !v {
				n++
			}
		}
		return n
	}
	// warm evaluates on the empty-handed graph and returns the verdicts.
	warm := func(s *cxrpq.Session) map[string]bool {
		if res, err := tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k})); err != nil || res.Len() != 0 {
			t.Fatalf("before the insertion: %v tuples, err %v", res, err)
		}
		if negatives(s) == 0 || negatives(s) == len(s.PathVerdicts()) {
			t.Fatalf("verdicts %v: want a negative and a positive one", s.PathVerdicts())
		}
		return s.PathVerdicts()
	}
	// settled checks a maintained session: positives kept, negatives gone
	// before anything is asked again, and the answer that of a fresh bind.
	settled := func(name string, s *cxrpq.Session, before map[string]bool, view *graph.DB) {
		if st := storeStats(s); st.DeltaPasses != 1 || st.FullRebuilds != 1 {
			t.Fatalf("%s: the insertion was not delta-maintained: %+v", name, st)
		}
		kept := s.PathVerdicts()
		for label, v := range before {
			if _, ok := kept[label]; ok != v {
				t.Fatalf("%s: verdict %q=%v before the insertion, kept=%v after", name, label, v, ok)
			}
		}
		got, err := tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := tuples(plan.Bind(freshCopy(view)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Len() != 1 {
			t.Fatalf("%s: %d tuples after the insertion, a fresh bind has %d, want 1", name, got.Len(), want.Len())
		}
	}

	db := graph.MustParse(base)
	sess := plan.Bind(db)
	before := warm(sess)
	if _, err := sess.ApplyDelta(insert); err != nil {
		t.Fatal(err)
	}
	settled("ApplyDelta", sess, before, db)

	db = graph.MustParse(base)
	s1 := plan.Bind(db.Snapshot().DB())
	before = warm(s1)
	if _, err := db.ApplyDelta(insert); err != nil {
		t.Fatal(err)
	}
	view := db.Snapshot().DB()
	settled("Fork", s1.Fork(view), before, view)
	if negatives(s1) == 0 {
		t.Fatal("Fork dropped verdicts of the session it was forked from")
	}
}

// Differential sweep: a fork chain across a MutationStream delta sequence
// must answer exactly like a fresh session on every snapshot.
func TestSessionForkMutationStreamDifferential(t *testing.T) {
	db, deltas := workload.MutationStream(5, 40, 12, 4)
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")
	plan := cxrpq.MustPrepare(q)
	const k = 1

	sess := plan.Bind(db.Snapshot().DB())
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k})); err != nil {
		t.Fatal(err)
	}
	for i, delta := range deltas {
		if _, err := db.ApplyDelta(delta); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		view := db.Snapshot().DB()
		sess = sess.Fork(view)
		got, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := tuples(plan.Bind(freshCopy(view)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("step %d: fork chain diverged: %d tuples, want %d", i, got.Len(), want.Len())
		}
	}
	if st := storeStats(sess); st.DeltaPasses == 0 {
		t.Fatalf("MutationStream deltas are insert-only; expected delta maintenance, got %+v", st)
	}
}

// Readers keep evaluating on their pinned sessions while the writer applies
// deltas and forks — under -race this proves reads never synchronize with
// the write path.
func TestSessionForkConcurrentReaders(t *testing.T) {
	db, deltas := workload.MutationStream(7, 30, 8, 3)
	q := cxrpq.MustParse("ans(x, y)\nx y : a|b\n")
	plan := cxrpq.MustPrepare(q)

	sess := plan.Bind(db.Snapshot().DB())
	var wg sync.WaitGroup
	for i, delta := range deltas {
		cur := sess
		wantLen := -1
		wg.Add(1)
		go func(s *cxrpq.Session, step int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				res, err := tuples(s.Do(cxrpq.Request{Op: "eval"}))
				if err != nil {
					t.Errorf("step %d: %v", step, err)
					return
				}
				if wantLen == -1 {
					wantLen = res.Len()
				} else if res.Len() != wantLen {
					t.Errorf("step %d: pinned session answer drifted %d -> %d", step, wantLen, res.Len())
					return
				}
			}
		}(cur, i)
		if _, err := db.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		sess = sess.Fork(db.Snapshot().DB())
	}
	wg.Wait()
	final, err := tuples(sess.Do(cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := tuples(plan.Bind(freshCopy(db)).Do(cxrpq.Request{Op: "eval"}))
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(want) {
		t.Fatal("final forked session diverged")
	}
}

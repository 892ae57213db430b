package cxrpq_test

// Metamorphic mutation-sequence harness for the incremental-update
// subsystem: every seed generates a random small graph and query
// (internal/workload), binds a Session, and drives a randomized
// Session.ApplyDelta sequence — edge additions, fresh-node interning,
// occasional removals and new labels — asserting after every step that
//
//	(a) the delta-maintained session result equals a re-evaluation on a
//	    structurally fresh database rebuilt from the live edge multiset
//	    (catching bugs anywhere in the graph index / stats / relation
//	    maintenance chain) and equals EvalBoundedNaive on the live
//	    database (catching engine-level divergence on the maintained
//	    index);
//	(b) under insert-only deltas the answer sets of Eval/bounded eval and
//	    the verdicts of bounded bool/bounded check grow monotonically
//	    (CXRPQ semantics are monotone in the edge set);
//	(c) an add-then-remove round trip restores the original tuple set.
//
// TestMutationCorpus replays a fixed seed list so CI exercises the laws
// deterministically via `go test -run Mutation -short`;
// TestMutationSequenceRandom sweeps 500+ fresh seeds.

import (
	"fmt"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// mutationState mirrors the live database so a structurally fresh copy can
// be rebuilt at every step (same interning order, hence identical node ids).
type mutationState struct {
	db    *graph.DB
	sess  *cxrpq.Session
	q     *cxrpq.Query
	k     int
	names []string

	// other is a session of another text over the same live database: it
	// never applies a delta itself and adopts, at every step, the atom store
	// sess's ApplyDelta maintained.
	other *cxrpq.Session
}

// bystander is the text of mutationState.other; its instantiations overlap
// those of the templates.
var bystander = cxrpq.MustPrepare(cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : $x|b\n"))

// freshEval rebuilds the database from scratch and evaluates q on it with a
// fresh plan and session — the ground truth of law (a).
func (m *mutationState) freshEval(t *testing.T, seed int64, q *cxrpq.Query) *pattern.TupleSet {
	t.Helper()
	res, err := tuples(cxrpq.MustPrepare(q).Bind(freshCopy(m.db)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: m.k}))
	if err != nil {
		t.Fatalf("seed %d: fresh re-evaluation: %v", seed, err)
	}
	return res
}

// checkStep asserts law (a) for the current state and returns the session
// result.
func (m *mutationState) checkStep(t *testing.T, seed int64, step string) *pattern.TupleSet {
	t.Helper()
	got, err := tuples(m.sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: m.k}))
	if err != nil {
		t.Fatalf("seed %d %s: bounded eval: %v", seed, step, err)
	}
	fresh := m.freshEval(t, seed, m.q)
	if !got.Equal(fresh) {
		t.Fatalf("seed %d %s: maintained session %d tuples, fresh re-evaluation %d\nquery:\n%s",
			seed, step, got.Len(), fresh.Len(), m.q.Pattern)
	}
	if m.other == nil {
		m.other = bystander.Bind(m.db)
	}
	if by, err := tuples(m.other.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: m.k})); err != nil || !by.Equal(m.freshEval(t, seed, bystander.Query())) {
		t.Fatalf("seed %d %s: the bystander session on the shared store has %v tuples (%v), its fresh re-evaluation differs", seed, step, by.Len(), err)
	}
	naive, err := cxrpq.EvalBoundedNaive(m.q, m.db, m.k)
	if err != nil {
		t.Fatalf("seed %d %s: EvalBoundedNaive: %v", seed, step, err)
	}
	if !got.Equal(naive) {
		t.Fatalf("seed %d %s: maintained session %d tuples, naive on live DB %d\nquery:\n%s",
			seed, step, got.Len(), naive.Len(), m.q.Pattern)
	}
	return got
}

// apply routes a delta through Session.ApplyDelta and keeps the name mirror
// in sync.
func (m *mutationState) apply(t *testing.T, seed int64, delta graph.Delta) *graph.DeltaInfo {
	t.Helper()
	info, err := m.sess.ApplyDelta(delta)
	if err != nil {
		t.Fatalf("seed %d: ApplyDelta(%+v): %v", seed, delta, err)
	}
	for len(m.names) < m.db.NumNodes() {
		m.names = append(m.names, m.db.Name(len(m.names)))
	}
	return info
}

// randomDelta draws a small mutation: mostly additions over the existing
// alphabet, sometimes interning a fresh node, sometimes (when allowed)
// removing a live edge or introducing a brand-new label.
func randomDelta(r *workload.RNG, db *graph.DB, step int, insertOnly bool) graph.Delta {
	var delta graph.Delta
	node := func() string { return db.Name(r.Intn(db.NumNodes())) }
	for i := 0; i <= r.Intn(2); i++ {
		to := node()
		if r.Intn(4) == 0 {
			to = fmt.Sprintf("f%d_%d", step, i) // fresh node
		}
		label := []rune("ab")[r.Intn(2)]
		if !insertOnly && r.Intn(8) == 0 {
			label = 'c' // brand-new label: forces the full-flush path
		}
		delta.Add = append(delta.Add, graph.DeltaEdge{From: node(), Label: label, To: to})
	}
	if !insertOnly && r.Intn(3) == 0 && db.NumEdges() > 0 {
		// Remove a uniformly random live edge.
		pick := r.Intn(db.NumEdges())
		for u := 0; u < db.NumNodes(); u++ {
			es := db.Out(u)
			if pick < len(es) {
				e := es[pick]
				delta.Del = append(delta.Del, graph.DeltaEdge{From: db.Name(e.From), Label: e.Label, To: db.Name(e.To)})
				break
			}
			pick -= len(es)
		}
	}
	return delta
}

// tupleSubset reports a ⊆ b.
func tupleSubset(a, b *pattern.TupleSet) bool {
	for _, t := range a.Sorted() {
		if !b.Contains(t) {
			return false
		}
	}
	return true
}

// mutationSeed runs one full metamorphic sequence for a seed.
func mutationSeed(t *testing.T, seed int64) {
	t.Helper()
	r := workload.NewRNG(seed)
	q := workload.RandomQuery(r, true) // finite-language templates keep the naive baseline fast
	nodes := 3 + r.Intn(3)
	db := workload.Random(seed^0x0ddba11, nodes, nodes+r.Intn(nodes+2), "ab")
	mutationRun(t, seed, r, q, db)
}

// mutationRun drives the sequence r draws over one query and database. It
// returns how many path-existence verdicts of the session went from false to
// true across a delta-maintained (insert-only) step: each is a relaxed label
// that matched nothing, was remembered as such, and had to be asked again.
func mutationRun(t *testing.T, seed int64, r *workload.RNG, q *cxrpq.Query, db *graph.DB) (flipped int) {
	t.Helper()
	m := &mutationState{db: db, sess: cxrpq.MustPrepare(q).Bind(db), q: q, k: 1}
	for id := 0; id < db.NumNodes(); id++ {
		m.names = append(m.names, db.Name(id))
	}

	prev := m.checkStep(t, seed, "initial")
	steps := 3 + r.Intn(3)
	for step := 0; step < steps; step++ {
		delta := randomDelta(r, m.db, step, step%2 == 0)
		verdicts, maint := m.sess.PathVerdicts(), storeStats(m.sess)
		info := m.apply(t, seed, delta)
		got := m.checkStep(t, seed, fmt.Sprintf("step %d", step))
		if storeStats(m.sess).DeltaPasses > maint.DeltaPasses {
			for label, now := range m.sess.PathVerdicts() {
				if was, asked := verdicts[label]; asked && !was && now {
					flipped++
				}
			}
		}

		if info.InsertOnly() {
			// Law (b): monotone growth of the answer set…
			if !tupleSubset(prev, got) {
				t.Fatalf("seed %d step %d: insert-only delta shrank the answer set (%d -> %d)\nquery:\n%s",
					seed, step, prev.Len(), got.Len(), q.Pattern)
			}
			// …of the Boolean verdict…
			if prev.Len() > 0 {
				if ok, err := verdict(m.sess.Do(cxrpq.Request{Op: "bool", Semantics: "bounded", K: m.k})); err != nil || !ok {
					t.Fatalf("seed %d step %d: Boolean verdict regressed (ok=%v err=%v)", seed, step, ok, err)
				}
				// …and of Check on a previously accepted tuple.
				tup := prev.Sorted()[r.Intn(prev.Len())]
				if ok, err := verdict(m.sess.Do(cxrpq.Request{Op: "check", Semantics: "bounded", K: m.k, Tuple: tup})); err != nil || !ok {
					t.Fatalf("seed %d step %d: bounded check(%v) regressed (ok=%v err=%v)", seed, step, tup, ok, err)
				}
			}
		}
		prev = got
	}

	// Law (c): an add-then-remove round trip restores the original tuples.
	before := prev
	roundTrip := graph.Delta{Add: []graph.DeltaEdge{
		{From: m.names[r.Intn(len(m.names))], Label: 'a', To: m.names[r.Intn(len(m.names))]},
		{From: m.names[r.Intn(len(m.names))], Label: 'b', To: m.names[r.Intn(len(m.names))]},
	}}
	m.apply(t, seed, roundTrip)
	mid := m.checkStep(t, seed, "round-trip add")
	if !tupleSubset(before, mid) {
		t.Fatalf("seed %d: round-trip addition shrank the answer set", seed)
	}
	m.apply(t, seed, graph.Delta{Del: roundTrip.Add})
	after := m.checkStep(t, seed, "round-trip remove")
	if !after.Equal(before) {
		t.Fatalf("seed %d: add-then-remove round trip did not restore the tuple set (%d vs %d)\nquery:\n%s",
			seed, after.Len(), before.Len(), q.Pattern)
	}
	return flipped
}

// mutationCorpus is the deterministic replay list: a spread over the
// template families plus seeds whose sequences hit removals, new labels and
// fresh-node interning early.
var mutationCorpus = []int64{
	0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
	233, 377, 610, 987, 1597, 2584, 4181, 6765,
	31337, 54321,
}

// TestMutationCorpus replays the fixed corpus (always, including -short).
func TestMutationCorpus(t *testing.T) {
	for _, seed := range mutationCorpus {
		mutationSeed(t, seed)
	}
	// The templates relax to ε-accepting labels, whose verdict no delta can
	// change. This entry pins a label with a mandatory factor, bbΣ*, on a graph
	// without a bb path: the session remembers that it matches nothing, and
	// seed 8's insertions create the path twice over — a stale "no" would
	// prune answers the laws of mutationRun then miss.
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : bb$x\n")
	db := graph.MustParse("n0 a n1\nn1 b n2\nn2 a n3\nn3 a n0\n")
	if flipped := mutationRun(t, 8, workload.NewRNG(8), q, db); flipped == 0 {
		t.Fatal("no path-existence verdict went from false to true: the entry is not exercised")
	}
	// With q read by nothing the second atom is resolved by its support, the
	// sources of bba and bbb, which no delta maintains. The graph has a bb
	// path (so the relaxed atom is not pruned) that nothing continues: both
	// supports are computed, empty, and remembered. The insertion continues
	// the path and is maintained per entry — a support that outlived it would
	// still answer "no sources" where law (a)'s fresh evaluation finds one —
	// and the removal has to empty it again.
	q = cxrpq.MustParse("ans(p, m)\np m : $x{a|b}\nm q : bb$x\n")
	db = graph.MustParse("n0 a n1\nn1 b n2\nn2 b n3\n")
	m := &mutationState{db: db, sess: cxrpq.MustPrepare(q).Bind(db), q: q, k: 1, names: []string{"n0", "n1", "n2", "n3"}}
	edge := []graph.DeltaEdge{{From: "n3", Label: 'b', To: "n1"}} // n1 -b-> n2 -b-> n3 -b-> n1 reads bbb
	if got := m.checkStep(t, -1, "dangling: initial"); got.Len() != 0 || storeStats(m.sess).Supports.Entries == 0 {
		t.Fatalf("dangling entry: %d answers and supports %+v before the insertion", got.Len(), storeStats(m.sess).Supports)
	}
	m.apply(t, -1, graph.Delta{Add: edge})
	if got := m.checkStep(t, -1, "dangling: insertion"); got.Len() == 0 || storeStats(m.sess).DeltaPasses != 1 {
		t.Fatalf("dangling entry: %d answers after the insertion, maintenance %+v", got.Len(), storeStats(m.sess))
	}
	m.apply(t, -1, graph.Delta{Del: edge})
	if got := m.checkStep(t, -1, "dangling: removal"); got.Len() != 0 {
		t.Fatalf("dangling entry: %d answers after the removal", got.Len())
	}
}

// TestMutationSequenceRandom sweeps 500+ fresh seeds; -short trims the
// sweep but never skips it entirely.
func TestMutationSequenceRandom(t *testing.T) {
	n := int64(520)
	if testing.Short() {
		n = 60
	}
	for seed := int64(700000); seed < 700000+n; seed++ {
		mutationSeed(t, seed)
	}
}

// TestMutationMaintStats pins that a known-label delta, inserts or removals,
// takes the fine-grained path (every entry carried, then retained or
// extended as it is read; no full flush) and that a new label takes the
// full-flush path.
func TestMutationMaintStats(t *testing.T) {
	q := cxrpq.MustParse("ans(p, q)\np m : $x{a|b}\nm q : $x|b\n")
	db := workload.Random(99, 6, 14, "ab")
	sess := cxrpq.MustPrepare(q).Bind(db)
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
		t.Fatal(err)
	}
	base := storeStats(sess)
	if base.FullRebuilds != 1 || base.DeltaPasses != 0 {
		t.Fatalf("unexpected baseline maint stats: %+v", base)
	}

	if _, err := sess.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(1)}}}); err != nil {
		t.Fatal(err)
	}
	st := storeStats(sess)
	if st.DeltaPasses != 1 || st.FullRebuilds != 1 || st.Stale == 0 || st.Retained+st.Extended != 0 {
		t.Fatalf("insert-only delta did not carry the entries, unsettled: %+v", st)
	}
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
		t.Fatal(err)
	}
	if st = storeStats(sess); st.Retained+st.Extended == 0 {
		t.Fatalf("no entries settled by the read: %+v", st)
	}

	// A removal is carried too.
	if _, err := sess.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(1)}}}); err != nil {
		t.Fatal(err)
	}
	st = storeStats(sess)
	if st.DeltaPasses != 2 || st.FullRebuilds != 1 {
		t.Fatalf("removal did not take the fine-grained path: %+v", st)
	}

	// A brand-new label must force the full flush too.
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'z', To: db.Name(1)}}}); err != nil {
		t.Fatal(err)
	}
	if st := storeStats(sess); st.FullRebuilds != 2 {
		t.Fatalf("new label did not force a full flush: %+v", st)
	}

	// An add-then-remove round trip between calls nets out: everything —
	// including the result cache — is retained.
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
		t.Fatal(err)
	}
	pre := storeStats(sess)
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(2), Label: 'a', To: db.Name(3)}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{{From: db.Name(2), Label: 'a', To: db.Name(3)}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tuples(sess.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})); err != nil {
		t.Fatal(err)
	}
	st = storeStats(sess)
	if st.Retains != pre.Retains+1 {
		t.Fatalf("net-empty window not retained: %+v -> %+v", pre, st)
	}
	if st.ResultHits != pre.ResultHits+1 {
		t.Fatalf("net-empty window dropped the result cache: %+v -> %+v", pre, st)
	}
}

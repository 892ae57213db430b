package cxrpq_test

// Tests of the bounded engine's support-resolved atoms: an atom with a node
// variable nothing else reads gets no relation, only the set of nodes its
// other endpoint can take.

import (
	"fmt"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// storeStats is the atom store of the session's database: what it holds,
// answers included, and the counters of its lineage.
func storeStats(s *cxrpq.Session) ecrpq.AtomStats { return ecrpq.Atoms(s.DB()).Stats() }

// publish applies delta to the session's database and carries its atom
// store to the new revision at once, as the server does when it publishes a
// batch: the next reader finds the store moved over the window, not one to
// build afresh.
func publish(s *cxrpq.Session, delta graph.Delta) (*graph.DeltaInfo, error) {
	info, err := s.DB().ApplyDelta(delta)
	if err == nil {
		ecrpq.Atoms(s.DB())
	}
	return info, err
}

// dropStore empties the atom store of db, facts and answers, so that the
// next call evaluates afresh.
func dropStore(db *graph.DB) { db.Derived(func(any) any { return nil }) }

// freshCopy returns a database with db's nodes, in id order, and edges and
// nothing derived from them: a session bound to it shares no atom store with
// one bound to db.
func freshCopy(db *graph.DB) *graph.DB {
	c := graph.New()
	for id := 0; id < db.NumNodes(); id++ {
		c.Node(db.Name(id))
	}
	for id := 0; id < db.NumNodes(); id++ {
		for _, e := range db.Out(id) {
			c.AddEdge(e.From, e.Label, e.To)
		}
	}
	return c
}

// leafOf is the CRPQ text over db's atom store as a bounded run joins it: a
// one-member source whose leaf has the atom of each label over sigma set on
// its edge (ecrpq.Leaf.Set), which fails only when the join's budget cuts a
// search.
func leafOf(db *graph.DB, text string, sigma []rune) ecrpq.Members {
	g, store := pattern.MustParseQuery(text), ecrpq.Atoms(db)
	return func(i int, j ecrpq.Join) (*ecrpq.Leaf, bool, error) {
		if i > 0 {
			return nil, false, nil
		}
		leaf := ecrpq.NewLeaf(store, g, j)
		for ei, e := range g.Edges {
			a, err := store.Atom(e.Label, sigma)
			if err == nil {
				_, err = leaf.Set(ei, a)
			}
			if err != nil {
				return nil, true, err
			}
		}
		return leaf, true, nil
	}
}

// leafSet sets leafOf's atoms under bud: nil when the store answers them
// without a search bud would cut.
func leafSet(db *graph.DB, text string, sigma []rune, bud *engine.Budget) error {
	_, _, err := leafOf(db, text, sigma)(0, ecrpq.Join{Options: ecrpq.Options{Budget: bud}})
	return err
}

// leafJoin is the answer of leafOf's join.
func leafJoin(db *graph.DB, text string, sigma []rune) (*pattern.TupleSet, error) {
	return ecrpq.EvalUnionWith(leafOf(db, text, sigma), ecrpq.Options{})
}

// tuples, verdict and witness read a Response the way a Go call returns: the
// fields its Op sets, then its error.
func tuples(r cxrpq.Response) (*pattern.TupleSet, error) { return r.Tuples, r.Err }

func verdict(r cxrpq.Response) (bool, error) { return r.OK, r.Err }

func witness(r cxrpq.Response) (*cxrpq.Explanation, bool, error) {
	return r.Explanation, r.OK, r.Err
}

// drain collects a bounded stream's distinct tuples.
func drain(t *testing.T, s *cxrpq.Session, k int, ranked bool) *pattern.TupleSet {
	t.Helper()
	cur, err := s.Stream(cxrpq.StreamOptions{Semantics: "bounded", K: k, Ranked: ranked})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	out := pattern.NewTupleSet()
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		out.Add(row.Tuple)
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	return out
}

// TestBoundedDanglingEndpoints: every bounded entry point agrees with the
// literal Theorem 6 evaluation on queries whose atoms have a dangling target,
// a dangling source, both, or a dangling self-loop (which keeps its complete
// table: its two ends read each other), and the session resolves exactly the
// dangling atoms through supports: beyond the one every complete table files,
// a support is stored only for them.
func TestBoundedDanglingEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		supports  bool
	}{
		{"target", "ans(x, y)\nx y : $w{a|b}\ny z : $w+", true},
		{"source", "ans(y, z)\nx y : $w{a|b}a*\ny z : $w b?", true},
		{"target and source", "ans(y)\nx y : $w{a|b}\ny z : $w+", true},
		{"both ends of one atom", "ans(x)\nx y : $w{a|b}\nu v : b $w", true},
		{"boolean", "ans()\nx y : $w{a|b}\ny z : $w a", true},
		{"self-loop", "ans(x, y)\nx y : $w{a|b}\nz z : ($w b)+", false},
		{"self-loop on a shared variable", "ans(x, y)\nx y : $w{ab|b}\ny y : $w+", false},
	} {
		q := cxrpq.MustParse(tc.src)
		answered := 0
		for seed := int64(1); seed <= 6; seed++ {
			db := workload.Random(seed, 7+int(seed), 14+3*int(seed), "ab")
			for k := 1; k <= 2; k++ {
				name := fmt.Sprintf("%s, seed %d, k=%d", tc.name, seed, k)
				// The oracle runs on a copy: what its evaluation files in an
				// atom store — complete row tables file supports — is not the
				// session's.
				want, err := cxrpq.EvalBoundedNaive(q, freshCopy(db), k)
				if err != nil {
					t.Fatal(err)
				}
				answered += want.Len()
				s := cxrpq.MustPrepare(q).Bind(db)
				got, err := tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
				if err != nil || !got.Equal(want) {
					t.Fatalf("%s: bounded eval %v (%v), naive %v", name, got.Sorted(), err, want.Sorted())
				}
				if st := storeStats(s); want.Len() > 0 && (st.Supports.Entries > st.Rows.Complete) != tc.supports {
					t.Fatalf("%s: %d supports stored for %d complete tables, want some alone: %v", name, st.Supports.Entries, st.Rows.Complete, tc.supports)
				}
				if ok, err := verdict(s.Do(cxrpq.Request{Op: "bool", Semantics: "bounded", K: k})); err != nil || ok != (want.Len() > 0) {
					t.Fatalf("%s: bounded bool = %v, %v; naive has %d tuples", name, ok, err, want.Len())
				}
				for _, ranked := range []bool{false, true} {
					if rows := drain(t, s, k, ranked); !rows.Equal(want) {
						t.Fatalf("%s: stream ranked=%v %v, naive %v", name, ranked, rows.Sorted(), want.Sorted())
					}
				}
				for _, tu := range want.Sorted() {
					if ok, err := verdict(s.Do(cxrpq.Request{Op: "check", Semantics: "bounded", K: k, Tuple: tu})); err != nil || !ok {
						t.Fatalf("%s: bounded check(%v) = %v, %v", name, tu, ok, err)
					}
					if len(tu) > 0 {
						miss := append(pattern.Tuple(nil), tu...)
						miss[0] = (miss[0] + 1) % db.NumNodes()
						if ok, err := verdict(s.Do(cxrpq.Request{Op: "check", Semantics: "bounded", K: k, Tuple: miss})); err != nil || ok != want.Contains(miss) {
							t.Fatalf("%s: bounded check(%v) = %v, %v", name, miss, ok, err)
						}
					}
				}
			}
		}
		if answered == 0 {
			t.Fatalf("%s: no graph has an answer: the case is not exercised", tc.name)
		}
	}
}

// TestBoundedDanglingPreBound: a pre-bound node variable is read, whatever
// the pattern says. With the otherwise dangling z of `y z : $w+` bound to a
// node, the atom keeps its pair relation and the run decides exactly whether
// some answer of the query extended by z has that node.
func TestBoundedDanglingPreBound(t *testing.T) {
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+")
	withZ := cxrpq.MustParse("ans(x, y, z)\nx y : $w{a|b}\ny z : $w+")
	hits, misses := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		db := workload.Random(seed, 9, 14, "ab")
		want, err := cxrpq.EvalBoundedNaive(withZ, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < db.NumNodes(); v++ {
			exists := false
			for _, tu := range want.All() {
				exists = exists || tu[2] == v
			}
			got, err := cxrpq.EvalBoundedBoolPre(q, db, 1, map[string]int{"z": v})
			if err != nil || got != exists {
				t.Fatalf("seed %d: z pre-bound to %d: %v, %v; the extended query says %v", seed, v, got, err, exists)
			}
			if exists {
				hits++
			} else {
				misses++
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d nodes with a match and %d without: the case is not exercised", hits, misses)
	}
}

// TestSupportAcrossDeltas: a carried support equals a fresh sweep. `y z :
// c$w` has z dangling and is resolved by the sources of "ca"; a removal
// empties that set, an insertion refills it, and after each the session — its
// database's store maintained in place by ApplyDelta, or carried onto the
// next snapshot by Fork — must answer like a bind to a fresh copy of the
// graph, and the store must hold the sources of "ca" a fresh copy's store
// sweeps. Both deltas are over known labels: every fact is carried across
// them, the support settled over the frontier of the changed edges.
func TestSupportAcrossDeltas(t *testing.T) {
	const base = "n1 a n2\nn2 c n3\nn3 a n4\nn4 b n1\n"
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{a|b}\ny z : c$w\n")
	plan := cxrpq.MustPrepare(q)
	remove := graph.Delta{Del: []graph.DeltaEdge{{From: "n3", Label: 'a', To: "n4"}}}
	insert := graph.Delta{Add: []graph.DeltaEdge{{From: "n3", Label: 'a', To: "n1"}}}
	const k = 1

	answers := func(name string, s *cxrpq.Session, view *graph.DB, n int) {
		t.Helper()
		got, err := tuples(s.Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := tuples(plan.Bind(freshCopy(view)).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Len() != n {
			t.Fatalf("%s: %v, a fresh copy has %v, want %d tuples", name, got.Sorted(), want.Sorted(), n)
		}
		// What the run left in the view's store under (ca, Σ) is what it
		// joined: a leaf that reads the sources of ca finds them, one hit.
		const sources = "ans(x)\nx y : ca"
		store := ecrpq.Atoms(view)
		hits := store.Stats().Hits
		ca, err := leafJoin(view, sources, []rune("abc"))
		if err != nil || ca.Len() != n || store.Stats().Hits != hits+1 {
			t.Fatalf("%s: the store holds %d sources of ca (%v, %d hits), want %d stored", name, ca.Len(), err, store.Stats().Hits-hits, n)
		}
		swept, err := leafJoin(freshCopy(view), sources, []rune("abc"))
		if err != nil || !ca.Equal(swept) {
			t.Fatalf("%s: carried support %v, a fresh sweep %v (%v)", name, ca.Sorted(), swept.Sorted(), err)
		}
	}

	db := graph.MustParse(base)
	sess := plan.Bind(db)
	answers("ApplyDelta: base", sess, db, 1)
	if _, err := publish(sess, remove); err != nil {
		t.Fatal(err)
	}
	answers("ApplyDelta: after the removal", sess, db, 0)
	if _, err := publish(sess, insert); err != nil {
		t.Fatal(err)
	}
	if st := storeStats(sess); st.DeltaPasses != 2 || st.FullRebuilds != 1 {
		t.Fatalf("the removal and the insertion were not delta-maintained: %+v", st)
	}
	answers("ApplyDelta: after the insertion", sess, db, 1)

	db = graph.MustParse(base)
	v0 := db.Snapshot().DB()
	s0 := plan.Bind(v0)
	answers("Fork: base", s0, v0, 1)
	if _, err := db.ApplyDelta(remove); err != nil {
		t.Fatal(err)
	}
	v1 := db.Snapshot().DB()
	s1 := s0.Fork(v1)
	answers("Fork: after the removal", s1, v1, 0)
	if _, err := db.ApplyDelta(insert); err != nil {
		t.Fatal(err)
	}
	v2 := db.Snapshot().DB()
	s2 := s1.Fork(v2)
	if st := storeStats(s2); st.DeltaPasses != 2 || st.FullRebuilds != 1 {
		t.Fatalf("the forks across the removal and the insertion were not delta-maintained: %+v", st)
	}
	answers("Fork: after the insertion", s2, v2, 1)
	answers("Fork: the parent, on its own snapshot", s1, v1, 0)
	answers("Fork: the grandparent, on its own snapshot", s0, v0, 1)
}

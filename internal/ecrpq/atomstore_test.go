package ecrpq

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// TestAtomStoreByteBound: with the budget forced down to a few relations'
// worth, every kind of fact is asked for under random labels and joins that
// read supports run on top. The store drops its epoch again and again; no
// answer changes; the bytes it reports are the sum of what its entries
// account for, their atoms' automata included, and never pass the budget by
// more than the entry that was just written. An atom held across the drops
// still resolves its relation.
func TestAtomStoreByteBound(t *testing.T) {
	t.Parallel()
	const n = 60
	db := probeRandomDB(77, n, 3*n, "ab")
	sigma := db.Alphabet()
	store := Atoms(db)
	store.budget = 3 * relBytes(&EdgeRel{fwd: make([][]int, n), size: n * n / 2})
	check := func(when string) {
		t.Helper()
		store.mu.Lock()
		defer store.mu.Unlock()
		var sum, largest int64
		for _, e := range store.m {
			sum += e.size()
			largest = max(largest, e.size())
		}
		if sum != store.bytes || store.bytes > store.budget+largest {
			t.Fatalf("%s: %d bytes reported, the %d entries account for %d, the largest for %d; budget %d",
				when, store.bytes, len(store.m), sum, largest, store.budget)
		}
	}
	heldLabel := xregex.MustParse("(ab|b)+a")
	held := atomOf(t, store, heldLabel, sigma)
	if st := store.Stats(); st.Automata.Entries != 1 || st.Automata.Bytes != held.size || st.Bytes < held.size {
		t.Fatalf("the atom's automaton is not charged to the store: %d bytes, %+v", held.size, st)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		label := randClassical(r, "ab", 3)
		name := fmt.Sprintf("op %d, %s", i, xregex.String(label))
		whole, err := RelationFor(db, label, sigma)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			rel, err := store.Relation(atomOf(t, store, label, sigma), engine.ReachOpts{Levels: i%8 == 0})
			if err != nil || !relEqual(rel, whole) {
				t.Fatalf("%s: Relation diverged (%v)", name, err)
			}
		case 1, 2:
			targets := i%4 == 1
			diag, err := store.Support(atomOf(t, store, label, sigma), targets, nil)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				partners := len(whole.Forward(u))
				if targets {
					ws, _ := whole.backward(u)
					partners = len(ws)
				}
				if (len(diag.Forward(u)) == 1) != (partners > 0) {
					t.Fatalf("%s: Support(targets=%v) and the relation disagree on node %d", name, targets, u)
				}
			}
		case 3:
			if ok, err := store.PathExists(atomOf(t, store, label, sigma), nil); err != nil || ok == whole.Empty() {
				t.Fatalf("%s: PathExists = %v (%v), the relation has %d pairs", name, ok, err, whole.Size())
			}
			q := &Query{Pattern: &pattern.Graph{Out: []string{"x", "z"}, Edges: []pattern.Edge{
				{From: "x", To: "y", Label: label}, {From: "y", To: "z", Label: xregex.MustParse("(a|b)+")}, {From: "z", To: "u", Label: label}}}}
			got, err := EvalWith(q, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rels := []*EdgeRel{whole, nil, whole}
			if rels[1], err = RelationFor(db, q.Pattern.Edges[1].Label, sigma); err != nil {
				t.Fatal(err)
			}
			if want := JoinRelations(q.Pattern, rels, PlanJoin(q.Pattern, rels, nil), nil, false); !got.Equal(want) {
				t.Fatalf("%s: the evaluation over the starved store has %d tuples, the join over complete relations %d", name, got.Len(), want.Len())
			}
		}
		check(name)
	}
	st := store.Stats()
	if st.Evictions < 3 || st.Hits == 0 {
		t.Fatalf("the budget was never under pressure, or nothing was ever found: %+v", st)
	}
	if st.Automata.Bytes == 0 || st.Bytes < st.Automata.Bytes+st.Relations.Bytes+st.Supports.Bytes+st.Verdicts.Bytes+st.Rows.Bytes {
		t.Fatalf("the kinds account for more than the store: %+v", st)
	}
	rel, err := store.Relation(held, engine.ReachOpts{})
	want, werr := RelationFor(probeRandomDB(77, n, 3*n, "ab"), heldLabel, sigma)
	if err = errors.Join(err, werr); err != nil {
		t.Fatal(err)
	}
	if !relEqual(rel, want) {
		t.Fatalf("an atom held across %d evictions resolves %d pairs, the relation has %d", st.Evictions, rel.Size(), want.Size())
	}
}

// atomOf is the atom of label over sigma that s hands out.
func atomOf(t testing.TB, s *AtomStore, label xregex.Node, sigma []rune) *Atom {
	t.Helper()
	a, err := s.Atom(label, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// storedRow reads the row of node u that the store's table for a holds in
// one direction.
func storedRow(s *AtomStore, a *Atom, forward bool, u int) ([]int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[a.key]; e != nil {
		return e.rows[side(!forward)].get(u)
	}
	return nil, false
}

// rowTables counts the store's filed row tables per direction: [0] the
// targets of sources, [1] the sources of targets.
func rowTables(s *AtomStore) (n [2]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.m {
		for d := range e.rows {
			if e.rows[d].span != nil {
				n[d]++
			}
		}
	}
	return n
}

// TestAtomStoreRowsDifferential: random CRPQ texts over a small pool of
// labels share their atoms — and the probe rows the store files for them, in
// both directions — on one database, under eval, bool and check. Every answer
// equals the one the same operation gives on a fresh copy of the database,
// run one text at a time, from eight goroutines at once, and with the store
// starved so that its epoch drops in the middle of evaluations. A relation
// the bounded engine stored first is what the lazy executor reads: its
// forward lists and its reverse index, with no kernel call and no row filed.
func TestAtomStoreRowsDifferential(t *testing.T) {
	t.Parallel()
	const n = 40
	newDB := func() *graph.DB { return probeRandomDB(91, n, 3*n, "ab") }
	sigma := []rune("ab")
	r := rand.New(rand.NewSource(8))
	pool := make([]string, 5)
	for i := range pool {
		pool[i] = xregex.String(randClassical(r, "ab", 3))
	}
	type job struct {
		text  string
		q     *Query
		tuple pattern.Tuple
		want  [3]string // eval, bool, check on a fresh copy
	}
	run := func(j *job, db *graph.DB) (got [3]string) {
		ts, err := Eval(j.q, db)
		ok, err2 := EvalBool(j.q, db)
		in, err3 := Check(j.q, db, j.tuple)
		if err = errors.Join(err, err2, err3); err != nil {
			t.Fatalf("%q: %v", j.text, err)
		}
		return [3]string{fmt.Sprint(ts.Len(), ts.All()), fmt.Sprint(ok), fmt.Sprint(in)}
	}
	vars := []string{"x", "y", "z", "w"}
	jobs := make([]*job, 48)
	for ji := range jobs {
		var sb strings.Builder
		used := map[string]bool{}
		for k := 2 + r.Intn(2); k > 0; k-- {
			from, to := vars[r.Intn(3)], vars[r.Intn(4)]
			used[from], used[to] = true, true
			fmt.Fprintf(&sb, "\n%s %s : %s", from, to, pool[r.Intn(len(pool))])
		}
		var out []string
		for _, z := range vars {
			if used[z] && (len(out) == 0 || r.Intn(2) == 0) {
				out = append(out, z)
			}
		}
		j := &job{text: "ans(" + strings.Join(out, ", ") + ")" + sb.String()}
		q, err := ParseQuery(j.text, sigma)
		if err != nil {
			t.Fatalf("%q: %v", j.text, err)
		}
		j.q = q
		for range out {
			j.tuple = append(j.tuple, r.Intn(n))
		}
		if ts, _ := Eval(q, newDB()); ts.Len() > 0 && ji%2 == 0 {
			j.tuple = ts.All()[r.Intn(ts.Len())]
		}
		j.want = run(j, newDB())
		jobs[ji] = j
	}
	check := func(what string, j *job, db *graph.DB) {
		if got := run(j, db); got != j.want {
			t.Errorf("%s %q (check %v): shared store answers %v, a fresh copy %v", what, j.text, j.tuple, got, j.want)
		}
	}

	db := newDB()
	store := Atoms(db)
	for _, j := range jobs {
		check("serial", j, db)
	}
	if tables := rowTables(store); tables[0] == 0 || tables[1] == 0 || store.Stats().Hits == 0 {
		t.Fatalf("the texts filed row tables %v (targets, sources) and were answered %d times from the store: the case is not exercised",
			tables, store.Stats().Hits)
	}

	db = newDB()
	store = Atoms(db)
	store.budget = 2 << 10 // a few rows' worth: the epoch drops under the readers
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				check(fmt.Sprintf("goroutine %d", g), jobs[(i+5*g)%len(jobs)], db)
			}
		}(g)
	}
	wg.Wait()
	if st := store.Stats(); st.Evictions == 0 {
		t.Fatalf("the starved store never dropped its epoch: %+v", st)
	}

	// A relation stored first answers every row request.
	db, fresh := newDB(), newDB()
	store = Atoms(db)
	label := xregex.MustParse("a(a|b)*")
	rel, err := store.Relation(atomOf(t, store, label, sigma), engine.ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RelationFor(fresh, label, sigma)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("ans(x, y)\nx y : a(a|b)*", sigma)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(q, db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	misses := store.Stats().Misses
	for u := 0; u < n; u++ {
		fw, _ := ev.atoms[0].probe(u, true)
		bw, _ := ev.atoms[0].probe(u, false)
		wantBw, _ := want.backward(u)
		if !slices.Equal(fw, want.Forward(u)) || !slices.Equal(bw, wantBw) {
			t.Fatalf("node %d: probes read %v / %v over the stored relation, want %v / %v", u, fw, bw, want.Forward(u), wantBw)
		}
	}
	if st := store.Stats(); rel.rev == nil || st.Rows.Entries != 0 || st.Misses != misses {
		t.Fatalf("the probes did not read the stored relation and its reverse index alone (reverse index built: %v): %+v", rel.rev != nil, st)
	}
	j := &job{text: "ans(y)\nx y : a(a|b)*\nx z : b", tuple: pattern.Tuple{3}}
	if j.q, err = ParseQuery(j.text, sigma); err != nil {
		t.Fatal(err)
	}
	j.want = run(j, fresh)
	check("over a stored relation", j, db)
}

// TestAtomIdentity: an atom is the store's, one per label and alphabet.
// Evaluators of different texts over one database hold the same atom for a
// label they share, and another one under another alphabet; an insert-only
// delta with no new label carries every atom of the store to the next
// revision, whatever facts it holds, while a removal or a new label starts
// over; goroutines that ask for one label at once get one atom, filed once.
func TestAtomIdentity(t *testing.T) {
	t.Parallel()
	sigma := []rune("ab")
	labels := []xregex.Node{
		xregex.MustParse("a(a|b)*"), // its relation is stored
		xregex.MustParse("ba"),      // its support
		xregex.MustParse("bbbbbb"),  // its negative verdict
		xregex.MustParse("b+"),      // nothing but the atom
	}
	newDB := func() *graph.DB { return graph.MustParse("n0 a n1\nn1 b n2\nn2 a n0\nn1 a n3\n") }
	// held files every label's atom in db's store, with a fact of its own
	// kind, and returns them.
	held := func(t *testing.T, db *graph.DB) []*Atom {
		s := Atoms(db)
		atoms := make([]*Atom, len(labels))
		for i, l := range labels {
			atoms[i] = atomOf(t, s, l, sigma)
		}
		_, err := s.Relation(atoms[0], engine.ReachOpts{})
		_, err2 := s.Support(atoms[1], true, nil)
		ok, err3 := s.PathExists(atoms[2], nil)
		if err = errors.Join(err, err2, err3); err != nil || ok {
			t.Fatal(ok, err)
		}
		return atoms
	}
	// after applies delta to db and returns the atoms its store hands out for
	// the labels at the new revision.
	after := func(t *testing.T, db *graph.DB, delta graph.Delta) []*Atom {
		s := Atoms(db)
		if _, err := db.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		ns := s.CarryTo(db)
		atoms := make([]*Atom, len(labels))
		for i, l := range labels {
			atoms[i] = atomOf(t, ns, l, sigma)
		}
		return atoms
	}
	// evaluated is the atom an evaluator of text over db holds for edge ei.
	evaluated := func(t *testing.T, db *graph.DB, text string, ei int) *Atom {
		q, err := ParseQuery(text, sigma)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := newEvaluator(q, db, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		return ev.atoms[ei].atom
	}
	for _, tc := range []struct {
		name  string
		same  bool                              // every pair is one atom, else none is
		pairs func(t *testing.T) (a, b []*Atom) // a[i] and b[i] are a pair
	}{
		{"two texts, one label", true, func(t *testing.T) ([]*Atom, []*Atom) {
			db := newDB()
			return []*Atom{evaluated(t, db, "ans(x)\nx y : a(a|b)*", 0)},
				[]*Atom{evaluated(t, db, "ans(z)\nx y : b\ny z : a(a|b)*", 1)}
		}},
		{"another alphabet", false, func(t *testing.T) ([]*Atom, []*Atom) {
			db := newDB()
			return []*Atom{evaluated(t, db, "ans(x)\nx y : a(a|b)*", 0)},
				[]*Atom{evaluated(t, db, "ans(x)\nx y : a(a|b)*\ny z : c", 0)}
		}},
		{"insert-only delta", true, func(t *testing.T) ([]*Atom, []*Atom) {
			db := newDB()
			return held(t, db), after(t, db, graph.Delta{Add: []graph.DeltaEdge{{From: "n3", Label: 'b', To: "n4"}}})
		}},
		{"removal", false, func(t *testing.T) ([]*Atom, []*Atom) {
			db := newDB()
			return held(t, db), after(t, db, graph.Delta{Del: []graph.DeltaEdge{{From: "n1", Label: 'a', To: "n3"}}})
		}},
		{"new label", false, func(t *testing.T) ([]*Atom, []*Atom) {
			db := newDB()
			return held(t, db), after(t, db, graph.Delta{Add: []graph.DeltaEdge{{From: "n3", Label: 'c', To: "n0"}}})
		}},
		{"eight goroutines", true, func(t *testing.T) (a, b []*Atom) {
			for round := 0; round < 32; round++ { // on a fresh store each
				s := Atoms(newDB())
				got := make([]*Atom, 8)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got[g], _ = s.Atom(labels[0], sigma)
					}()
				}
				close(start)
				wg.Wait()
				if st := s.Stats(); st.Automata.Entries != 1 || len(s.m) != 1 {
					t.Fatalf("%d atoms in %d entries, want one", st.Automata.Entries, len(s.m))
				}
				for _, y := range got[1:] {
					a, b = append(a, got[0]), append(b, y)
				}
			}
			return a, b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pairs(t)
			for i, x := range a {
				y := b[i]
				if x == nil || y == nil || (x == y) != tc.same {
					t.Fatalf("atom %d: %p and %p, want one atom: %v", i, x, y, tc.same)
				}
			}
		})
	}
}

// TestAtomStoreKernelCounters: every kernel call the store makes reports into
// its database's counters, and only there. A lazy probe of one node is one
// batch of one source; a weighted relation build, which the store files
// nowhere, is one batch per source.
func TestAtomStoreKernelCounters(t *testing.T) {
	t.Parallel()
	const n = 30
	db, other := probeRandomDB(5, n, 3*n, "ab"), probeRandomDB(5, n, 3*n, "ab")
	store := Atoms(db)
	a := atomOf(t, store, xregex.MustParse("(a|b)+"), db.Alphabet())
	u := 0
	for len(db.Out(u)) == 0 {
		u++
	}
	before := store.Stats().Kernel
	store.rows(a, true, []int{u}, engine.ReachOpts{}, make([]probeRow, 1))
	after := store.Stats().Kernel
	if after.Batches != before.Batches+1 || after.Sources != before.Sources+1 || after.Edges == before.Edges {
		t.Fatalf("a probe of node %d counted as %+v after %+v, want one batch of one source", u, after, before)
	}
	before = after
	if _, err := store.Relation(a, engine.ReachOpts{Weight: func(rune) int32 { return 2 }}); err != nil {
		t.Fatal(err)
	}
	after = store.Stats().Kernel
	if after.Batches != before.Batches+n || after.Sources != before.Sources+n || after.Edges == before.Edges {
		t.Fatalf("a weighted build over %d nodes counted as %+v after %+v, want one batch per source", n, after, before)
	}
	if st := store.Stats(); st.Relations.Entries != 0 {
		t.Fatalf("the weighted relation was filed: %+v", st)
	}
	if k := Atoms(other).Stats().Kernel; k != (engine.KernelStats{}) {
		t.Fatalf("another database's counters moved: %+v", k)
	}
}

package ecrpq

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// TestAtomStoreByteBound: with the budget forced down to a few complete
// tables' worth, every kind of fact is asked for under random labels and
// joins that read supports run on top. The store drops its epoch again and
// again; no answer changes; the bytes it reports are the sum of what its
// entries account for, their atoms' automata included, and never pass the
// budget by more than the entry that was just written. An atom held across
// the drops still resolves its complete table.
func TestAtomStoreByteBound(t *testing.T) {
	t.Parallel()
	const n = 60
	db := probeRandomDB(77, n, 3*n, "ab")
	sigma := db.Alphabet()
	store := Atoms(db)
	store.budget = 3 * 2 * 8 * int64(n+n*n/2) // both directions of three tables of n²/2 pairs
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
			rel, err := tableRel(store, atomOf(t, store, label, sigma), nil)
			if err != nil || !relEqual(rel, whole) {
				t.Fatalf("%s: the complete table diverged (%v)", name, err)
			}
		case 1, 2:
			targets := i%4 == 1
			sup, err := store.support(atomOf(t, store, label, sigma), targets, nil)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				partners := len(whole.Forward(u))
				if targets {
					ws, _ := whole.backward(u)
					partners = len(ws)
				}
				if bitHas(sup, u) != (partners > 0) {
					t.Fatalf("%s: Support(targets=%v) and the relation disagree on node %d", name, targets, u)
				}
			}
		case 3:
			if ok, err := store.PathExists(atomOf(t, store, label, sigma), nil); err != nil || ok != (whole.size > 0) {
				t.Fatalf("%s: PathExists = %v (%v), the relation has %d pairs", name, ok, err, whole.size)
			}
			q := &Query{Pattern: &pattern.Graph{Out: []string{"x", "z"}, Edges: []pattern.Edge{
				{From: "x", To: "y", Label: label}, {From: "y", To: "z", Label: xregex.MustParse("(a|b)+")}, {From: "z", To: "u", Label: label}}}}
			got, err := Eval(q, db)
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
	if st.Automata.Bytes == 0 || st.Bytes < st.Automata.Bytes+st.Supports.Bytes+st.Verdicts.Bytes+st.Rows.Bytes {
		t.Fatalf("the kinds account for more than the store: %+v", st)
	}
	rel, err := tableRel(store, held, nil)
	want, werr := RelationFor(probeRandomDB(77, n, 3*n, "ab"), heldLabel, sigma)
	if err = errors.Join(err, werr); err != nil {
		t.Fatal(err)
	}
	if !relEqual(rel, want) {
		t.Fatalf("an atom held across %d evictions resolves %d pairs, the relation has %d", st.Evictions, rel.size, want.size)
	}
}

// atomOf is the atom of label over sigma that s hands out.
// TestAtomStoreAnswerAccount: answers are charged to the store's one account.
// With the budget lowered to a few answers' worth, answers filed under many
// keys between complete tables, some of them growing as a ranked prefix does,
// drop the epoch again and again: the bytes reported are the sum of what the
// entries account for and never pass the budget by more than the largest
// entry, and the answer just filed is held and read back. An insert-only
// move carries no answer filed with CarryNone; a net-empty window carries all
// of them.
func TestAtomStoreAnswerAccount(t *testing.T) {
	t.Parallel()
	const n = 40
	db := probeRandomDB(91, n, 3*n, "ab")
	sigma := db.Alphabet()
	store := Atoms(db)
	store.budget = 16 << 10
	check := func(when string) {
		t.Helper()
		store.mu.Lock()
		defer store.mu.Unlock()
		var sum, largest int64
		for _, e := range store.m {
			sum += e.size()
			largest = max(largest, e.size())
		}
		for _, a := range store.ans {
			sum += a.bytes
			largest = max(largest, a.bytes)
		}
		if sum != store.bytes || store.bytes > store.budget+largest {
			t.Fatalf("%s: %d bytes reported, the entries account for %d, the largest for %d; budget %d",
				when, store.bytes, sum, largest, store.budget)
		}
	}
	type key struct{ i int }
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("answer %d", i)
		v := &[]int32{int32(i)}
		if got := store.FileAnswer(key{i}, v, r.Intn(1500), CarryNone); got != v {
			t.Fatalf("%s: filing under a fresh key returned %v", name, got)
		}
		if i%3 == 0 { // grows tier by tier
			for tier := 0; tier < 3; tier++ {
				store.ChargeAnswer(key{i}, v, r.Intn(500))
				check(name)
			}
		}
		if got, ok := store.Answer(key{i}); !ok || got != v {
			t.Fatalf("%s: the answer just filed reads back as %v, %v", name, got, ok)
		}
		check(name)
		if i%10 == 0 {
			if _, err := tableRel(store, atomOf(t, store, randClassical(r, "ab", 3), sigma), nil); err != nil {
				t.Fatal(err)
			}
			check(name + ", after a complete table")
		}
	}
	if st := store.Stats(); st.Evictions == 0 || st.Results.Entries == 0 || st.Results.Bytes == 0 {
		t.Fatalf("the answers never pressed the budget, or none is held: %+v", st)
	}

	// Room again, and answers of every key to carry.
	store.budget = atomBudget
	fill := func(s *AtomStore) {
		for i := range 50 {
			s.FileAnswer(key{i}, i, 10, CarryNone)
		}
	}
	fill(store)
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(0), Label: 'a', To: db.Name(1)}}}); err != nil {
		t.Fatal(err)
	}
	next := Atoms(db)
	if st := next.Stats(); st.DeltaPasses != 1 || st.Results.Entries != 0 {
		t.Fatalf("an insert-only move carried %d answers (%d delta passes); want none", st.Results.Entries, st.DeltaPasses)
	}
	if _, ok := next.Answer(key{0}); ok {
		t.Fatal("an answer of the old graph reads back after an insertion")
	}
	fill(next)
	round := []graph.DeltaEdge{{From: db.Name(2), Label: 'b', To: db.Name(3)}}
	if _, err := db.ApplyDelta(graph.Delta{Add: round}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyDelta(graph.Delta{Del: round}); err != nil {
		t.Fatal(err)
	}
	same := Atoms(db)
	if st := same.Stats(); st.Retains != 1 || st.Results.Entries != 50 {
		t.Fatalf("a net-empty window carried %d answers of 50 (%d retains)", st.Results.Entries, st.Retains)
	}
	for i := range 50 {
		if v, ok := same.Answer(key{i}); !ok || v != i {
			t.Fatalf("answer %d across a net-empty window: %v, %v", i, v, ok)
		}
	}
}

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

	// A complete table filed first answers every row request, the other
	// direction by its inversion: no kernel call runs.
	db, fresh := newDB(), newDB()
	store = Atoms(db)
	label := xregex.MustParse("a(a|b)*")
	if _, err := tableRel(store, atomOf(t, store, label, sigma), nil); err != nil {
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
	before := store.Stats()
	for u := 0; u < n; u++ {
		fw, _, _ := ev.atoms[0].probe(u, true)
		bw, _, _ := ev.atoms[0].probe(u, false)
		wantBw, _ := want.backward(u)
		if !slices.Equal(fw, want.Forward(u)) || !slices.Equal(bw, wantBw) {
			t.Fatalf("node %d: probes read %v / %v over the complete table, want %v / %v", u, fw, bw, want.Forward(u), wantBw)
		}
	}
	if st := store.Stats(); st.Rows.Complete != 2 || st.Misses != before.Misses || st.Kernel != before.Kernel {
		t.Fatalf("the probes did not read the complete table and its inversion alone: %+v", st)
	}
	j := &job{text: "ans(y)\nx y : a(a|b)*\nx z : b", tuple: pattern.Tuple{3}}
	if j.q, err = ParseQuery(j.text, sigma); err != nil {
		t.Fatal(err)
	}
	j.want = run(j, fresh)
	check("over a complete table", j, db)
}

// TestAtomIdentity: an atom is the store's, one per label and alphabet.
// Evaluators of different texts over one database hold the same atom for a
// label they share, and another one under another alphabet; a delta with no
// new label — inserts or removals — carries every atom of the store to the
// next revision, whatever facts it holds, while a new label starts over;
// goroutines that ask for one label at once get one atom, filed once.
func TestAtomIdentity(t *testing.T) {
	t.Parallel()
	sigma := []rune("ab")
	labels := []xregex.Node{
		xregex.MustParse("a(a|b)*"), // its complete table is stored
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
		_, err := tableRel(s, atoms[0], nil)
		_, err2 := s.support(atoms[1], true, nil)
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
		{"removal", true, func(t *testing.T) ([]*Atom, []*Atom) {
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
// batch of one source; weighted rows of every node, which the store files
// nowhere, are one batch per source.
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
	store.rows(a, true, []int{u}, nil)
	after := store.Stats().Kernel
	if after.Batches != before.Batches+1 || after.Sources != before.Sources+1 || after.Edges == before.Edges {
		t.Fatalf("a probe of node %d counted as %+v after %+v, want one batch of one source", u, after, before)
	}
	before = after
	all := make([]int, n)
	for u := range all {
		all[u] = u
	}
	store.search(a, true, all, engine.ReachOpts{Weight: func(rune) int32 { return 2 }})
	after = store.Stats().Kernel
	if after.Batches != before.Batches+n || after.Sources != before.Sources+n || after.Edges == before.Edges {
		t.Fatalf("weighted rows of %d nodes counted as %+v after %+v, want one batch per source", n, after, before)
	}
	if st := store.Stats(); st.Rows.Complete != 0 {
		t.Fatalf("the weighted rows were filed: %+v", st)
	}
	if k := Atoms(other).Stats().Kernel; k != (engine.KernelStats{}) {
		t.Fatalf("another database's counters moved: %+v", k)
	}
}

// TestAtomStoreCompleteRows: materializing texts that scan shared atoms
// complete row tables while other goroutines read them in place. Eight
// goroutines run every text — eval, bool and check — on one fresh database,
// and every answer equals the one a fresh copy gives. A complete table is
// never written again: after further evaluations and a direct fill its span
// and arena are the same bytes in the same arrays. The support it filed at
// completion is the one an engine.Support sweep finds on a fresh copy.
func TestAtomStoreCompleteRows(t *testing.T) {
	t.Parallel()
	const n = 50
	newDB := func() *graph.DB { return probeRandomDB(57, n, 3*n, "ab") }
	sigma := []rune("ab")
	pool := []string{"a(a|b)*", "b+", "ab|ba", "(ab)*a", "a"}
	type job struct {
		text  string
		q     *Query
		tuple pattern.Tuple
		want  string
	}
	run := func(j *job, db *graph.DB) (string, error) {
		ts, err := Eval(j.q, db)
		ok, err2 := EvalBool(j.q, db)
		in, err3 := Check(j.q, db, j.tuple)
		if err = errors.Join(err, err2, err3); err != nil {
			return "", err
		}
		return fmt.Sprint(ts.Len(), ts.All(), ok, in), nil
	}
	var jobs []*job
	for i, l := range pool {
		m := pool[(i+1)%len(pool)]
		for _, text := range []string{
			"ans(x, y)\nx y : " + l,
			"ans(x, z)\nx y : " + l + "\ny z : " + m,
			"ans(y, x)\nx y : " + m + "\ny x : " + l,
			"ans(x)\nx y : " + l + "\nz x : " + m,
		} {
			q, err := ParseQuery(text, sigma)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			j := &job{text: text, q: q, tuple: make(pattern.Tuple, len(q.Pattern.Out))}
			if ts, _ := Eval(q, newDB()); ts.Len() > 0 {
				j.tuple = ts.All()[ts.Len()/2]
			}
			if j.want, err = run(j, newDB()); err != nil {
				t.Fatalf("%q on a fresh copy: %v", text, err)
			}
			jobs = append(jobs, j)
		}
	}
	db := newDB()
	store := Atoms(db)
	storm := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range jobs {
					j := jobs[(i+3*g)%len(jobs)]
					if got, err := run(j, db); err != nil || got != j.want {
						t.Errorf("goroutine %d, %q (check %v): shared store answers %s (%v), a fresh copy %s", g, j.text, j.tuple, got, err, j.want)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	storm()

	type snap struct {
		e       *atomEntry
		d       int
		t       rowTable // the headers
		span    []uint64 // and copies of what they point to
		arena   []int
		support []uint64
	}
	snapshot := func() (out []snap) {
		store.mu.Lock()
		defer store.mu.Unlock()
		for _, e := range store.m {
			for d, tab := range e.rows {
				if tab.complete() {
					out = append(out, snap{e: e, d: d, t: tab, span: slices.Clone(tab.span), arena: slices.Clone(tab.arena),
						support: slices.Clone(e.sup[d])})
				}
			}
		}
		return out
	}
	tables := snapshot()
	t.Logf("%d complete tables", len(tables))
	if len(tables) == 0 || store.Stats().Rows.Complete != len(tables) {
		t.Fatalf("%d complete tables, the stats count %d: the case is not exercised", len(tables), store.Stats().Rows.Complete)
	}
	storm()
	store.mu.Lock()
	for _, tb := range tables {
		all := make([]int, n)
		rows := make([][]int, n)
		for u := range all {
			all[u], rows[u] = u, []int{u}
		}
		if tb.e.rows[tb.d].fill(n, all, rows) {
			t.Errorf("%s: a fill of a complete table reports completing it", tb.e.atom.key)
		}
	}
	store.mu.Unlock()
	fresh := Atoms(newDB())
	for _, tb := range tables {
		store.mu.Lock()
		now := tb.e.rows[tb.d]
		store.mu.Unlock()
		same := &now.span[0] == &tb.t.span[0] && len(now.arena) == len(tb.t.arena) && cap(now.arena) == cap(tb.t.arena) &&
			(len(now.arena) == 0 || &now.arena[0] == &tb.t.arena[0])
		if !same || !slices.Equal(now.span, tb.span) || !slices.Equal(now.arena, tb.arena) {
			t.Errorf("%q, direction %d: the complete table was written again", tb.e.atom.key, tb.d)
		}
		want, err := fresh.support(atomOf(t, fresh, tb.e.atom.label, sigma), tb.d == 1, nil)
		if err != nil || !slices.Equal(tb.support, want) {
			t.Errorf("%q, direction %d: support filed at completion %v, a sweep on a fresh copy %v (%v)", tb.e.atom.key, tb.d, bitList(tb.support), bitList(want), err)
		}
	}
}

// TestTableViewsUnderFiling: many readers and many filers share each row
// table of one store. Reader goroutines run lazy and materializing
// evaluations of texts that share atoms — reading the store's tables in
// place, through the header each was last handed — while filer goroutines
// file rows of the same atoms, in both directions and at random nodes, a
// few at a time, so the tables grow and their arenas move under the
// readers. Every answer equals a single-goroutine evaluation on a fresh
// store. Under -race it also holds that a span cell is published by an
// atomic store after its row's cells.
func TestTableViewsUnderFiling(t *testing.T) {
	t.Parallel()
	const n = 120
	newDB := func() *graph.DB { return probeRandomDB(23, n, 2*n, "ab") }
	sigma := []rune("ab")
	labels := []string{"a(a|b)*", "b+", "(a|b)+", "ab|ba"}
	texts := []string{
		"ans(x, z)\nx y : a(a|b)*\ny z : b+",
		"ans(x, y)\nx y : (a|b)+\ny z : ab|ba",
		"ans(y, x)\nx y : b+\ny x : a(a|b)*",
		"ans(x)\nx y : ab|ba\nz x : (a|b)+",
	}
	queries := make([]*Query, len(texts))
	wants := make([]*pattern.TupleSet, len(texts))
	for i, text := range texts {
		q, err := ParseQuery(text, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if wants[i], err = Eval(q, newDB()); err != nil || wants[i].Len() == 0 {
			t.Fatalf("%q on a fresh store: no answers (%v), the case is not exercised", text, err)
		}
		queries[i] = q
	}
	for round := 0; round < 3; round++ {
		db := newDB()
		store := Atoms(db)
		atoms := make([]*Atom, len(labels))
		for i, l := range labels {
			atoms[i] = atomOf(t, store, xregex.MustParse(l), sigma)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() { // a reader
				defer wg.Done()
				for i := range 2 * len(queries) {
					k, lazy := (i+g)%len(queries), (i+g+round)%2 == 0
					ev, err := newEvaluator(queries[k], db, Options{}, lazy)
					if err != nil {
						t.Error(err)
						return
					}
					got := pattern.NewTupleSet()
					ev.stream(nil, func(row []int32, _ int) bool { got.AddRow(row); return true })
					if got.Settle(); !got.Equal(wants[k]) {
						t.Errorf("round %d, reader %d, lazy %v, %q: %d answers, a fresh store %d", round, g, lazy, texts[k], got.Len(), wants[k].Len())
					}
				}
			}()
			go func() { // a filer
				defer wg.Done()
				r := &testRNG{s: uint64(100*round + g + 1)}
				for range 150 {
					nodes := make([]int, 1+r.intn(4))
					for i := range nodes {
						nodes[i] = r.intn(n)
					}
					store.rows(atoms[r.intn(len(atoms))], r.intn(2) == 0, nodes, nil)
				}
			}()
		}
		wg.Wait()
	}
}

// TestAtomStoreWarmScanBytes: a warm materializing evaluation of one scanned
// atom reads the store's complete table in place instead of copying a row
// header per node. On BenchmarkProbeMemo's 5 000-node graph it allocates
// under 16 KiB and runs no kernel call.
func TestAtomStoreWarmScanBytes(t *testing.T) {
	db := probeRandomDB(3, 5000, 7000, "abc")
	q, err := ParseQuery("ans(x, y)\nx y : a(b|c)*", []rune("abc"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	eval := func() {
		ev, err := newEvaluator(q, db, Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		rows = 0
		ev.stream(nil, func([]int32, int) bool { rows++; return true })
	}
	eval() // completes the table
	const runs = 50
	misses := Atoms(db).Stats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		eval()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if t.Logf("a warm evaluation of %d rows allocates %d bytes", rows, per); per >= 16<<10 || rows == 0 {
		t.Fatalf("a warm evaluation of %d rows allocated %d bytes, want under 16 KiB", rows, per)
	}
	if st := Atoms(db).Stats(); st.Misses != misses || st.Rows.Complete == 0 {
		t.Fatalf("warm evaluations missed the store %d times, complete tables %d", st.Misses-misses, st.Rows.Complete)
	}
}

// TestAtomStoreCarriedAnswers: what a move does to each kind of answer, and
// the byte account through it. Over an insert-only move an answer filed with
// CarryAlways, and one with CarryReused that was looked up again, are
// carried stale — Answer misses them, Carried returns them with the window's
// frontier — and the others are dropped. SettleAnswer files the settled
// answer in place of the stale copy; once every stale item has settled no
// window is left and the account is the sum of what the entries and answers
// hold. A window that removed edges carries the eval answer, flagged, to a
// caller that can settle it there and drops it for any other; it drops the
// verdict. A window the delta log no longer covers drops every answer.
// AtomStats.ResultDropped counts each drop on lookup.
func TestAtomStoreCarriedAnswers(t *testing.T) {
	t.Parallel()
	db := probeRandomDB(17, 30, 60, "ab")
	exact := func(s *AtomStore, when string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		var sum int64
		for _, e := range s.m {
			sum += e.size()
		}
		for _, a := range s.ans {
			sum += a.bytes
		}
		for _, w := range s.wins {
			sum += w.bytes
		}
		if sum != s.bytes {
			t.Fatalf("%s: %d bytes accounted, the store holds %d", when, s.bytes, sum)
		}
	}
	s := Atoms(db)
	type key struct{ i int }
	s.FileAnswer(key{0}, "eval", 10, CarryAlways)
	s.FileAnswer(key{1}, "verdict read again", 0, CarryReused)
	s.FileAnswer(key{2}, "verdict never read again", 0, CarryReused)
	s.FileAnswer(key{3}, "prefix", 10, CarryNone)
	if _, ok := s.Answer(key{1}); !ok {
		t.Fatal("an answer just filed does not read back")
	}
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: "fresh", Label: 'a', To: db.Name(0)}}}); err != nil {
		t.Fatal(err)
	}
	s = Atoms(db)
	if st := s.Stats(); st.Results.Entries != 2 {
		t.Fatalf("an insert-only move carried %d answers, want the eval and the verdict read again", st.Results.Entries)
	}
	exact(s, "after the move")
	for i, want := range []string{"eval", "verdict read again"} {
		if _, ok := s.Answer(key{i}); ok {
			t.Fatalf("%s: a carried answer reads back as current", want)
		}
		v, frontier, removed, ok := s.Carried(key{i})
		if !ok || removed || v != want || !slices.Contains(frontier, db.NumNodes()-1) {
			t.Fatalf("%s: carried as %v, %v over the frontier %v", want, v, ok, frontier)
		}
	}
	if _, _, _, ok := s.Carried(key{2}); ok {
		t.Fatal("a verdict never read again was carried")
	}
	exact(s, "with the window filed")
	if got := s.SettleAnswer(key{0}, "eval settled", 12, CarryAlways); got != "eval settled" {
		t.Fatalf("settling filed %v", got)
	}
	if got := s.SettleAnswer(key{0}, "eval settled twice", 12, CarryAlways); got != "eval settled" {
		t.Fatalf("a second settle replaced the first: %v", got)
	}
	s.SettleAnswer(key{1}, "verdict read again", 0, CarryReused)
	if st := s.Stats(); st.ResultCarried != 2 || st.Results.Entries != 2 {
		t.Fatalf("two answers settled: %+v", st)
	}
	s.Verdicts() // settles every entry
	exact(s, "all settled")
	s.mu.Lock()
	left := len(s.wins) + len(s.stale)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("all settled: %d windows and stale revisions left", left)
	}

	// A window that removed edges carries the eval answer with the removal
	// flag set, for its caller to settle or drop, and drops the verdict.
	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{{From: "fresh", Label: 'a', To: db.Name(0)}}, Add: []graph.DeltaEdge{{From: db.Name(1), Label: 'b', To: db.Name(2)}}}); err != nil {
		t.Fatal(err)
	}
	s = Atoms(db)
	fresh := db.NumNodes() - 1 // the tail of the removed edge
	if v, frontier, removed, ok := s.Carried(key{0}); !ok || !removed || v != "eval settled" || !slices.Contains(frontier, fresh) {
		t.Fatalf("the eval answer over a removal: %v, removed %v, ok %v, over the frontier %v", v, removed, ok, frontier)
	}
	if _, _, _, ok := s.Carried(key{1}); ok {
		t.Fatal("a verdict was carried over a window that removed an edge")
	}
	if st := s.Stats(); st.Results.Entries != 1 || st.ResultDropped != 1 {
		t.Fatalf("%d answers held, %d dropped after the lookups; want the eval answer still carried and the verdict dropped", st.Results.Entries, st.ResultDropped)
	}
	exact(s, "after the drop")

	// A caller that cannot settle over removals drops the eval answer; one
	// settled meanwhile stays.
	s.SettleAnswer(key{0}, "eval settled again", 12, CarryAlways)
	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{{From: db.Name(1), Label: 'b', To: db.Name(2)}}}); err != nil {
		t.Fatal(err)
	}
	s = Atoms(db)
	if _, _, removed, ok := s.Carried(key{0}); !ok || !removed {
		t.Fatal("an eval answer was not carried over a removal")
	}
	s.DropCarried(key{0})
	s.DropCarried(key{0})
	if _, _, _, ok := s.Carried(key{0}); ok {
		t.Fatal("an answer its caller dropped is still carried")
	}
	if st := s.Stats(); st.Results.Entries != 0 || st.ResultDropped != 2 {
		t.Fatalf("%d answers held, %d dropped; want none held, two dropped", st.Results.Entries, st.ResultDropped)
	}

	// A window the delta log no longer covers drops an eval answer too.
	s.FileAnswer(key{0}, "eval", 10, CarryAlways)
	uncovered(t, db, &s)
	if _, _, _, ok := s.Carried(key{0}); ok {
		t.Fatal("an answer was carried over a window the delta log does not cover")
	}
	if st := s.Stats(); st.Results.Entries != 0 || st.ResultDropped != 3 {
		t.Fatalf("%d answers held, %d dropped past the delta log; want none held, three dropped", st.Results.Entries, st.ResultDropped)
	}
	exact(s, "past the delta log")
}

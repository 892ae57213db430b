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
// account for and never pass the budget by more than the entry that was just
// written.
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
		for key, e := range store.m {
			sum += e.size(key)
			largest = max(largest, e.size(key))
		}
		if sum != store.bytes || store.bytes > store.budget+largest {
			t.Fatalf("%s: %d bytes reported, the %d entries account for %d, the largest for %d; budget %d",
				when, store.bytes, len(store.m), sum, largest, store.budget)
		}
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
			rel, err := store.Relation(label, sigma, engine.ReachOpts{Levels: i%8 == 0})
			if err != nil || !relEqual(rel, whole) {
				t.Fatalf("%s: Relation diverged (%v)", name, err)
			}
		case 1, 2:
			targets := i%4 == 1
			diag, err := store.Support(label, sigma, targets, nil)
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
			if ok, err := store.PathExists(label, sigma, nil); err != nil || ok == whole.Empty() {
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
	if st.Bytes < st.Relations.Bytes+st.Supports.Bytes+st.Verdicts.Bytes {
		t.Fatalf("the kinds account for more than the store: %+v", st)
	}
}

// storedRow reads the row of node u that the store's table for ent holds in
// one direction.
func storedRow(s *AtomStore, ent *compiledEntry, forward bool, u int) ([]int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[ent.key]; e != nil {
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
	rel, err := store.Relation(label, sigma, engine.ReachOpts{})
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

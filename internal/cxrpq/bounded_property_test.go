package cxrpq_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// randBoundedQuery generates a small random CXRPQ exercising the bounded
// engine beyond the vstar-free fragment: two string variables, references
// under repetition, defs spread across up to three edges, and a dependent
// second definition ($y's body references $x) so the ≺-topological prefix
// checks and the tuple-level force condition both fire.
func randBoundedQuery(seed int64) *cxrpq.Query {
	s := uint64(seed)
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	xBodies := []string{"a|b", "(a|b)+", "ab|b", "b?a"}
	yBodies := []string{"$x", "$x|b", "a|b", "$x a?"}
	mids := []string{"$y", "($x|$y)", "$x+", "($y|a)b*"}
	tails := []string{"$x", "$x+|b", "($x|$y)+", "$y?a*"}
	src := "ans(p, q)\n" +
		"p m : $x{" + xBodies[next(uint64(len(xBodies)))] + "}c?\n" +
		"m n : $y{" + yBodies[next(uint64(len(yBodies)))] + "}" + mids[next(uint64(len(mids)))] + "\n" +
		"n q : " + tails[next(uint64(len(tails)))] + "\n"
	return cxrpq.MustParse(src)
}

// Property (tentpole differential): the prefix-incremental bounded engine
// agrees with the literal Theorem 6 rendering EvalBoundedNaive on full tuple
// sets — not just Boolean outcomes — across randomized graphs, bounds and
// queries.
func TestQuickBoundedEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randBoundedQuery(seed)
		db := workload.Random(seed^0x3b3b, 4, 7, "ab")
		k := 1 + int(uint64(seed)%2)
		fast, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: k}))
		if err != nil {
			return false
		}
		naive, err := cxrpq.EvalBoundedNaive(q, db, k)
		if err != nil {
			return false
		}
		return fast.Equal(naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// Property: bounded check agrees with membership in the naive tuple set, for
// both members and non-members.
func TestQuickCheckBoundedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randBoundedQuery(seed)
		db := workload.Random(seed^0x9c9c, 4, 7, "ab")
		naive, err := cxrpq.EvalBoundedNaive(q, db, 1)
		if err != nil {
			return false
		}
		for _, tup := range naive.Sorted() {
			ok, err := verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Semantics: "bounded", K: 1, Tuple: tup}))
			if err != nil || !ok {
				return false
			}
		}
		// a sample of arbitrary tuples must agree with set membership
		for a := 0; a < db.NumNodes(); a++ {
			tup := pattern.Tuple{a, (a + 1) % db.NumNodes()}
			ok, err := verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "check", Semantics: "bounded", K: 1, Tuple: tup}))
			if err != nil || ok != naive.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// Property: bounded evaluations running concurrently over one database — the
// parallelism a server has, across requests that share the atom store — each
// return exactly the result of a lone evaluation over a fresh copy. Each
// caller prepares its own plan, so that none reads an answer another filed.
func TestQuickBoundedParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	req := cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}
	f := func(seed int64) bool {
		q := randBoundedQuery(seed)
		db := workload.Random(seed^0x6d6d, 5, 9, "ab")
		seqRes, err := tuples(cxrpq.MustPrepare(q).Bind(freshCopy(db)).Do(req))
		if err != nil {
			return false
		}
		const callers = 4
		par, errs := make([]*pattern.TupleSet, callers), make([]error, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				par[i], errs[i] = tuples(cxrpq.MustPrepare(q).Bind(db).Do(req))
			}()
		}
		wg.Wait()
		for i := range callers {
			if errs[i] != nil || !par[i].Equal(seqRes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedBoolStopsAtFirstWitness: a bounded Boolean run returns at its
// first witness. The text's first mapping in enumeration order, $w = ε,
// matches, so the run answers (true, nil) having instantiated that mapping's
// atoms only, and the kernel does strictly less work for it than for the
// text's eval, which instantiates every image of $w up to K. Each run gets a
// cold store of its own.
func TestBoundedBoolStopsAtFirstWitness(t *testing.T) {
	db := graph.MustParse("u a v\nv a w\nw b x\nx a u\nv b u\n")
	q := cxrpq.MustParse("ans(x, z)\nx y : $w{a*}b\ny z : $w\n")
	const k = 3
	ex, ok, err := witness(cxrpq.MustPrepare(q).Bind(freshCopy(db)).Do(cxrpq.Request{Op: "explain", Semantics: "bounded", K: k}))
	if err != nil || !ok || ex.Images["w"] != "" {
		t.Fatalf("fixture: the first witness is %+v, %v, %v; want $w = ε", ex, ok, err)
	}
	run := func(op string) (cxrpq.Response, engine.KernelStats) {
		sess := cxrpq.MustPrepare(q).Bind(freshCopy(db))
		return sess.Do(cxrpq.Request{Op: op, Semantics: "bounded", K: k}), storeStats(sess).Kernel
	}
	b, bk := run("bool")
	if !b.OK || b.Err != nil {
		t.Fatalf("bool = %v, %v; want true, nil", b.OK, b.Err)
	}
	e, ek := run("eval")
	if e.Err != nil || e.Tuples.Len() == 0 {
		t.Fatalf("eval = %v, %v", e.Tuples, e.Err)
	}
	if bk.Sources >= ek.Sources || bk.Edges >= ek.Edges {
		t.Fatalf("bool's kernel work %+v is not below eval's %+v", bk, ek)
	}
}

package cxrpq_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cxrpq/internal/cxrpq"
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

// Property: the parallel enumeration returns exactly the sequential result
// (the worker fan-out must not lose or duplicate subtrees).
func TestQuickBoundedParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randBoundedQuery(seed)
		db := workload.Random(seed^0x6d6d, 5, 9, "ab")
		plan := cxrpq.MustPrepare(q)
		par, err := tuples(plan.BindWorkers(db, 4).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}))
		if err != nil {
			return false
		}
		seqRes, err := tuples(plan.BindWorkers(freshCopy(db), 1).Do(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}))
		if err != nil {
			return false
		}
		return par.Equal(seqRes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// Property: EvalAny's capped flag (now a single HasPathOfLen frontier sweep)
// agrees with the definition via PathLabels growth.
func TestQuickEvalAnyCappedAgrees(t *testing.T) {
	f := func(seed int64) bool {
		db := workload.Random(seed^0x4e4e, 4, int(uint64(seed)%9), "ab")
		q := cxrpq.MustParse("ans(p, q)\np q : $x{a|b}$x*")
		for k := 0; k <= 2; k++ {
			_, capped, err := cxrpq.EvalAny(q, db, k)
			if err != nil {
				return false
			}
			want := len(db.PathLabels(k+1, 0)) > len(db.PathLabels(k, 0))
			if capped != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}

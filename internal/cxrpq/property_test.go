package cxrpq_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// randVsfQuery generates a small random vstar-free two-edge CXRPQ over
// {a,b}: the first edge defines $x, the second references it inside simple
// contexts.
func randVsfQuery(seed int64) *cxrpq.Query {
	s := uint64(seed)
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	defBodies := []string{"a|b", "ab|b", "a(a|b)", "b?a"}
	ctxs := []string{"$x", "$x|b", "($x|a)b?", "a$x", "$x($x|b)"}
	tails := []string{"", "a*", "(a|b)?"}
	src := "ans(p, q)\n" +
		"p m : $x{" + defBodies[next(uint64(len(defBodies)))] + "}" + tails[next(uint64(len(tails)))] + "\n" +
		"m q : " + ctxs[next(uint64(len(ctxs)))] + "\n"
	return cxrpq.MustParse(src)
}

// Property: the union eval agrees with the brute-force conjunctive-match oracle on
// small random graphs (words up to length 4 suffice for these shapes).
func TestQuickVsfAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randVsfQuery(seed)
		db := workload.Random(seed^0x5f5f, 4, 7, "ab")
		got, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
		if err != nil {
			return false
		}
		want, err := oracle.EvalCXRPQ(q, db, 4)
		if err != nil {
			return false
		}
		// oracle words are bounded by 4; engine must contain all oracle
		// tuples, and every engine tuple must be oracle-verifiable at some
		// bound — check containment both ways with a larger oracle bound
		for _, tup := range want.Sorted() {
			if !got.Contains(tup) {
				return false
			}
		}
		wider, err := oracle.EvalCXRPQ(q, db, 6)
		if err != nil {
			return false
		}
		for _, tup := range got.Sorted() {
			if !wider.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: InstantiateCXRE is sound — word tuples generated from the
// instantiated classical tuple are conjunctive matches of the original.
func TestQuickInstantiateTupleSound(t *testing.T) {
	sigma := []rune("ab")
	images := []string{"", "a", "b", "ab"}
	f := func(seed int64, xi uint8) bool {
		q := randVsfQuery(seed)
		c := q.CXRE()
		v := map[string]string{"x": images[int(xi)%len(images)]}
		inst, err := cxrpq.InstantiateCXRE(c, v, sigma)
		if err != nil {
			return false
		}
		// sample one word per component (shortest); skip if any ∅
		words := make([]string, len(inst))
		for i, n := range inst {
			m, err := xregex.Compile(n, sigma)
			if err != nil {
				return false
			}
			ws := m.EnumerateWords(5, 1)
			if len(ws) == 0 {
				return true // empty under this mapping — nothing to check
			}
			rs := make([]rune, 0, len(ws[0]))
			for _, code := range ws[0] {
				rs = append(rs, rune(code))
			}
			words[i] = string(rs)
		}
		return cxrpq.MatchTupleBool(c, words, sigma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: bounded evaluation is monotone in k: q^≤k(D) ⊆ q^≤k+1(D).
func TestQuickBoundedMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randVsfQuery(seed) // vsf queries are valid CXRPQ^≤k queries too
		db := workload.Random(seed^0xabcd, 4, 6, "ab")
		r1, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}))
		if err != nil {
			return false
		}
		r2, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}))
		if err != nil {
			return false
		}
		for _, tup := range r1.Sorted() {
			if !r2.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: for vstar-free queries with images bounded structurally by the
// database's path length, the union eval ⊇ bounded eval for every k.
func TestQuickVsfContainsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randVsfQuery(seed)
		db := workload.Random(seed^0x1234, 4, 6, "ab")
		full, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
		if err != nil {
			return false
		}
		bounded, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}))
		if err != nil {
			return false
		}
		for _, tup := range bounded.Sorted() {
			if !full.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatchTuple witnesses are reproducible — re-instantiating with
// the returned mapping accepts the same words.
func TestQuickMatchTupleWitness(t *testing.T) {
	sigma := []rune("ab")
	c := cxrpq.CXRE{
		xregex.MustParse("$x{(a|b)+}"),
		xregex.MustParse("$x|b"),
	}
	f := func(w1bits, w2bits []bool) bool {
		w1 := bitsToWord(w1bits, 3)
		w2 := bitsToWord(w2bits, 3)
		vm, ok := cxrpq.MatchTuple(c, []string{w1, w2}, sigma)
		if !ok {
			// spec: match iff w1 ∈ (a|b)+ and (w2 == w1 or w2 == "b")
			return !(len(w1) > 0 && (w2 == w1 || w2 == "b"))
		}
		inst, err := cxrpq.InstantiateCXRE(c, vm, sigma)
		if err != nil {
			return false
		}
		ok1, err1 := xregex.Matches(inst[0], w1, sigma)
		ok2, err2 := xregex.Matches(inst[1], w2, sigma)
		return err1 == nil && err2 == nil && ok1 && ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func bitsToWord(bits []bool, maxLen int) string {
	if len(bits) > maxLen {
		bits = bits[:maxLen]
	}
	w := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			w[i] = 'a'
		} else {
			w[i] = 'b'
		}
	}
	return string(w)
}

// Regression guard: Eval on a CRPQ-shaped CXRPQ agrees with the CRPQ engine.
func TestQuickClassicalDispatchAgrees(t *testing.T) {
	f := func(seed int64) bool {
		db := workload.Random(seed, 5, 10, "ab")
		q := cxrpq.MustParse("ans(x, y)\nx m : a(a|b)*\nm y : b+")
		r1, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
		if err != nil {
			return false
		}
		want, err := oracle.EvalCXRPQ(q, db, 5)
		if err != nil {
			return false
		}
		for _, tup := range want.Sorted() {
			if !r1.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pruned Theorem 6 enumeration agrees exactly with the
// literal blind guess over (Σ^≤k)^n — the pruning is sound and complete.
func TestQuickBoundedPruningExact(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randVsfQuery(seed)
		db := workload.Random(seed^0x7777, 4, 6, "ab")
		pruned, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2}))
		if err != nil {
			return false
		}
		naive, err := cxrpq.EvalBoundedNaive(q, db, 2)
		if err != nil {
			return false
		}
		return pruned.Equal(naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorem 4): the normal form is language-equivalent — queries
// labelled with ᾱ and with NF(ᾱ) return the same answers on random DBs.
func TestQuickNormalFormEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		q := randVsfQuery(seed)
		c := q.CXRE()
		nf, _, err := cxrpq.NormalForm(c)
		if err != nil {
			return false
		}
		g := q.Pattern.Clone()
		for i := range g.Edges {
			g.Edges[i].Label = nf[i]
		}
		qnf, err := cxrpq.New(g)
		if err != nil {
			return false
		}
		db := workload.Random(seed^0x2468, 4, 7, "ab")
		r1, err := tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
		if err != nil {
			return false
		}
		r2, err := tuples(cxrpq.Do(qnf, db, cxrpq.Request{Op: "eval"}))
		if err != nil {
			return false
		}
		return r1.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

var _ = graph.New
var _ = pattern.NewTupleSet

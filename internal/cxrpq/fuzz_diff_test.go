package cxrpq_test

// Randomized differential fuzz harness for the prepared-query subsystem:
// every seed generates a random small graph (internal/workload) and a
// random CXRPQ (workload.RandomQuery) and asserts that Plan/Session
// evaluation agrees with the literal Theorem 6 rendering EvalBoundedNaive
// — and, on finite-language seeds, exactly with the brute-force
// conjunctive-match oracle. Finite-mode queries are constructed so that no
// matched edge word exceeds workload.RandomQueryMaxWord and no image
// exceeds workload.RandomQueryMaxImage, hence oracle(MaxWord) computes the
// exact unrestricted semantics and must coincide with the ≤k semantics for
// k ≥ MaxImage; general-mode queries (repetition operators) are compared
// against the naive engine on full tuple sets and against the oracle by
// containment.
//
// TestFuzzCorpus replays a fixed list of seeds (including historically
// tricky shapes) so CI exercises the corpus deterministically even with
// -short; TestFuzzDiffRandom sweeps a larger randomized range; and
// FuzzPreparedDiff exposes the same property to `go test -fuzz`.

import (
	"fmt"
	"strings"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// diffSeed runs the full differential check for one seed, failing t with
// the query text on any disagreement or infrastructure error.
func diffSeed(t *testing.T, seed int64) {
	t.Helper()
	r := workload.NewRNG(seed)
	finite := r.Intn(4) != 0 // 3/4 exact three-way seeds, 1/4 general-mode
	q := workload.RandomQuery(r, finite)
	nodes := 3 + r.Intn(3)
	edges := nodes + r.Intn(nodes+3)
	db := workload.Random(seed^0x7e7e, nodes, edges, "ab")
	k := 1
	if !finite && r.Intn(2) == 0 {
		k = 2
	}

	plan, err := cxrpq.Prepare(q)
	if err != nil {
		t.Fatalf("seed %d: Prepare: %v\nquery:\n%s", seed, err, q.Pattern)
	}
	sess := plan.Bind(db)
	got, err := sess.EvalBounded(k)
	if err != nil {
		t.Fatalf("seed %d: Session.EvalBounded: %v\nquery:\n%s", seed, err, q.Pattern)
	}
	naive, err := cxrpq.EvalBoundedNaive(q, db, k)
	if err != nil {
		t.Fatalf("seed %d: EvalBoundedNaive: %v\nquery:\n%s", seed, err, q.Pattern)
	}
	if !got.Equal(naive) {
		t.Fatalf("seed %d: session %d tuples, naive %d tuples\nquery:\n%s",
			seed, got.Len(), naive.Len(), q.Pattern)
	}

	// The session must keep agreeing on repeated calls (result cache) and
	// on the Boolean/Check views of the same semantics.
	again, err := sess.EvalBounded(k)
	if err != nil || !again.Equal(naive) {
		t.Fatalf("seed %d: cached re-evaluation diverged (err=%v)", seed, err)
	}
	ok, err := sess.EvalBoundedBool(k)
	if err != nil || ok != (naive.Len() > 0) {
		t.Fatalf("seed %d: EvalBoundedBool=%v err=%v, want %v", seed, ok, err, naive.Len() > 0)
	}
	for i, tup := range naive.Sorted() {
		if i >= 3 {
			break
		}
		ok, err := sess.CheckBounded(k, tup)
		if err != nil || !ok {
			t.Fatalf("seed %d: CheckBounded(%v)=%v err=%v, want true\nquery:\n%s",
				seed, tup, ok, err, q.Pattern)
		}
	}
	// Every answer has an explanation that checks out, under the bounded
	// semantics and — for a vstar-free query — under the unrestricted one.
	for _, tup := range naive.Sorted() {
		ex, ok, err := sess.ExplainBounded(k, tup)
		if err != nil || !ok {
			t.Fatalf("seed %d: ExplainBounded(%d, %v)=%v err=%v, want a witness\nquery:\n%s", seed, k, tup, ok, err, q.Pattern)
		}
		checkExplanation(t, fmt.Sprintf("seed %d ExplainBounded(%d, %v)", seed, k, tup), q, db, ex, tup, k)
	}
	var vsf *pattern.TupleSet
	if q.CXRE().IsVStarFree() {
		if vsf, err = sess.Eval(); err != nil {
			t.Fatalf("seed %d: Session.Eval: %v\nquery:\n%s", seed, err, q.Pattern)
		}
		for _, tup := range vsf.Sorted() {
			ex, ok, err := sess.Explain(tup)
			if err != nil || !ok {
				t.Fatalf("seed %d: Explain(%v)=%v err=%v, want a witness\nquery:\n%s", seed, tup, ok, err, q.Pattern)
			}
			checkExplanation(t, fmt.Sprintf("seed %d Explain(%v)", seed, tup), q, db, ex, tup, -1)
		}
	}
	if len(q.Pattern.Out) > 0 && naive.Len() > 0 {
		// a tuple off the answer set must be rejected
		probe := make(pattern.Tuple, len(q.Pattern.Out))
		found := false
		for v := 0; v < db.NumNodes() && !found; v++ {
			for i := range probe {
				probe[i] = v
			}
			if !naive.Contains(probe) {
				found = true
			}
		}
		if found {
			ok, err := sess.CheckBounded(k, probe)
			if err != nil || ok {
				t.Fatalf("seed %d: CheckBounded(non-member %v)=%v err=%v, want false", seed, probe, ok, err)
			}
			if ex, ok, err := sess.ExplainBounded(k, probe); err != nil || ok || ex != nil {
				t.Fatalf("seed %d: ExplainBounded(non-member %v)=%v, %v err=%v, want none", seed, probe, ex, ok, err)
			}
			if vsf != nil && !vsf.Contains(probe) {
				if ex, ok, err := sess.Explain(probe); err != nil || ok || ex != nil {
					t.Fatalf("seed %d: Explain(non-member %v)=%v, %v err=%v, want none", seed, probe, ex, ok, err)
				}
			}
		}
	}

	// Oracle: exact on finite seeds, containment on general ones.
	checkOracle := func(stage string, res *pattern.TupleSet) {
		t.Helper()
		if finite {
			want, err := oracle.EvalCXRPQ(q, db, workload.RandomQueryMaxWord)
			if err != nil {
				t.Fatalf("seed %d %s: oracle: %v", seed, stage, err)
			}
			if !res.Equal(want) {
				t.Fatalf("seed %d %s: session %d tuples, oracle %d tuples\nquery:\n%s",
					seed, stage, res.Len(), want.Len(), q.Pattern)
			}
		} else {
			want, err := oracle.EvalCXRPQ(q, db, k)
			if err != nil {
				t.Fatalf("seed %d %s: oracle: %v", seed, stage, err)
			}
			for _, tup := range want.Sorted() {
				if !res.Contains(tup) {
					t.Fatalf("seed %d %s: oracle tuple %v missing from session result\nquery:\n%s",
						seed, stage, tup, q.Pattern)
				}
			}
		}
	}
	checkOracle("pre-delta", got)

	// Delta interleaving: mutate the database between queries through the
	// session's incremental-update path and re-run the three-way check on
	// the maintained caches. Labels stay within the query alphabet so the
	// finite-mode oracle stays exact; every third seed also removes an edge
	// to exercise the full-flush path in the same sequence. Half the seeds
	// interleave (the re-check re-runs the oracle, which dominates the
	// harness cost); the dedicated mutation-sequence harness
	// (mutation_diff_test.go) covers delta maintenance in depth.
	if seed%2 != 0 {
		return
	}
	delta := graph.Delta{Add: []graph.DeltaEdge{
		{From: db.Name(r.Intn(db.NumNodes())), Label: []rune("ab")[r.Intn(2)], To: db.Name(r.Intn(db.NumNodes()))},
		{From: db.Name(r.Intn(db.NumNodes())), Label: []rune("ab")[r.Intn(2)], To: db.Name(r.Intn(db.NumNodes()))},
	}}
	if seed%3 == 0 && db.NumEdges() > 0 {
		e := db.Out(firstNonEmptyOut(db))[0]
		delta.Del = append(delta.Del, graph.DeltaEdge{From: db.Name(e.From), Label: e.Label, To: db.Name(e.To)})
	}
	if _, err := sess.ApplyDelta(delta); err != nil {
		t.Fatalf("seed %d: ApplyDelta: %v", seed, err)
	}
	got, err = sess.EvalBounded(k)
	if err != nil {
		t.Fatalf("seed %d: post-delta Session.EvalBounded: %v", seed, err)
	}
	naive, err = cxrpq.EvalBoundedNaive(q, db, k)
	if err != nil {
		t.Fatalf("seed %d: post-delta EvalBoundedNaive: %v", seed, err)
	}
	if !got.Equal(naive) {
		t.Fatalf("seed %d: post-delta session %d tuples, naive %d tuples\nquery:\n%s",
			seed, got.Len(), naive.Len(), q.Pattern)
	}
	checkOracle("post-delta", got)
}

// checkExplanation fails t unless ex is a witness of tup ∈ q(D): its morphism
// projects to tup, its words are a conjunctive match of the query's xregex
// with exactly its images as the variable mapping (Lemma 10; a variable it
// does not mention occurs on no chosen branch and takes ε), each of length at
// most k when k ≥ 0, and every word labels a path of D between the nodes its
// edge is mapped to.
func checkExplanation(t *testing.T, what string, q *cxrpq.Query, db *graph.DB, ex *cxrpq.Explanation, tup pattern.Tuple, k int) {
	t.Helper()
	for i, z := range q.Pattern.Out {
		if ex.NodeOf[z] != tup[i] {
			t.Fatalf("%s: morphism %v does not project to the tuple\nquery:\n%s", what, ex.NodeOf, q.Pattern)
		}
	}
	c := q.CXRE()
	images := map[string]string{}
	for x := range c.Vars() {
		images[x] = ex.Images[x]
		if k >= 0 && len(images[x]) > k {
			t.Fatalf("%s: image %q of $%s is longer than %d\nquery:\n%s", what, images[x], x, k, q.Pattern)
		}
	}
	sigma := xregex.MergeAlphabets(db.Alphabet(), c.Alphabet())
	inst, err := cxrpq.InstantiateCXRE(c, images, sigma)
	if err != nil || len(ex.Words) != len(q.Pattern.Edges) {
		t.Fatalf("%s: %d words, instantiation error %v\nquery:\n%s", what, len(ex.Words), err, q.Pattern)
	}
	for i, e := range q.Pattern.Edges {
		if ok, err := xregex.Matches(inst[i], ex.Words[i], sigma); err != nil || !ok {
			t.Fatalf("%s: words %q are no conjunctive match under images %v (edge %d: %v)\nquery:\n%s", what, ex.Words, ex.Images, i, err, q.Pattern)
		}
		if !labelsPath(db, ex.NodeOf[e.From], ex.Words[i], ex.NodeOf[e.To]) {
			t.Fatalf("%s: word %q of edge %d labels no path from %d to %d\nquery:\n%s", what, ex.Words[i], i, ex.NodeOf[e.From], ex.NodeOf[e.To], q.Pattern)
		}
	}
}

// firstNonEmptyOut returns a node with at least one outgoing edge.
func firstNonEmptyOut(db *graph.DB) int {
	for u := 0; u < db.NumNodes(); u++ {
		if len(db.Out(u)) > 0 {
			return u
		}
	}
	return 0
}

// fuzzCorpus is the deterministic replay corpus: a spread of seeds covering
// every template family plus seeds that historically exercised tricky
// interactions (force-condition pruning, ε-images with shared free
// variables, 2-edge self-referencing tails). CI replays it with
// `go test -run Fuzz -short`.
var fuzzCorpus = []int64{
	0, 1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
	58, 77, 101, 137, 222, 313, 404, 555, 713, 999,
	1024, 2048, 4096, 31337,
}

// TestFuzzCorpus replays the fixed corpus (always, including -short).
func TestFuzzCorpus(t *testing.T) {
	for _, seed := range fuzzCorpus {
		diffSeed(t, seed)
	}
}

// TestFuzzDiffRandom sweeps 500+ fresh seeds, as parallel subtests of 20
// (a seed touches nothing process-wide); -short trims the sweep but never
// skips it entirely.
func TestFuzzDiffRandom(t *testing.T) {
	n := int64(520)
	if testing.Short() {
		n = 60
	}
	const chunk = 20
	for lo := int64(100000); lo < 100000+n; lo += chunk {
		t.Run(fmt.Sprintf("seeds %d-%d", lo, lo+chunk-1), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed < lo+chunk; seed++ {
				diffSeed(t, seed)
			}
		})
	}
}

// FuzzPreparedDiff exposes the differential property to the native fuzzer;
// its seed corpus mirrors fuzzCorpus.
func FuzzPreparedDiff(f *testing.F) {
	for _, seed := range fuzzCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffSeed(t, seed)
	})
}

// FuzzParse: the textual query format is the server's outermost input.
// Whatever the bytes, Parse returns a query or an error and never panics,
// and what parses prepares or is refused with an error — a Plan is built
// from attacker-chosen text on every cold request. Seeded from the queries of
// examples/ and from the string-variable templates of internal/workload.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"ans(a, b)\na z : $p{[fm][fm]}\nb z : $p\n",                                         // examples/explain
		"ans(v1, v2)\nv1 v2 : $x{..+}\nv2 v1 : $y{..+}\nv1 w : ($x|$y)+\nv2 w : ($x|$y)+\n", // examples/messagenet
		"ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)+\n",                                     // examples/quickstart
		"ans(x, y)\nx m : $v{a|b}\nm y : $v|c\n",
		"ans()\n", "ans(x)\nx x : $x{$x}\n", "ans(x, y)\nx y : ($a{a}|$b{b})($a|$b)\n",
	} {
		f.Add(src)
	}
	for seed := int64(0); seed < 16; seed++ {
		q := workload.RandomQuery(workload.NewRNG(seed), seed%2 == 0)
		var sb strings.Builder
		fmt.Fprintf(&sb, "ans(%s)\n", strings.Join(q.Pattern.Out, ", "))
		for _, e := range q.Pattern.Edges {
			fmt.Fprintf(&sb, "%s %s : %s\n", e.From, e.To, xregex.String(e.Label))
		}
		f.Add(sb.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := cxrpq.Parse(src)
		if err != nil {
			return
		}
		if p, err := cxrpq.Prepare(q); err == nil && p.Fragment() == "" {
			t.Fatalf("%q prepared into a plan without a fragment", src)
		}
	})
}

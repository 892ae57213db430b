package cxrpq_test

// The bounded engine's candidate images come from a walk over the label index
// steered by the determinized definition bodies. These tests hold that walk
// to the enumerate-then-filter definition it replaced — every path word of
// length ≤ k, kept when it passes the per-word feasibility test — in content
// and in order, and pin the order-dependent outputs that ride on it.

import (
	"fmt"
	"strings"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// filteredPathLabels is the reference: PathLabels(k) filtered word by word.
// ε always passes; a word passes for a defined variable when it matches some
// definition body with the prefix substituted and the rest relaxed to Σ*, and
// for an undefined one when the variable is referenced anywhere.
func filteredPathLabels(w *cxrpq.CandidateWalk, db *graph.DB, k int, x string, prefix map[string]string) []string {
	var out []string
	for _, word := range db.PathLabels(k, 0) {
		ok := word == ""
		if bodies := w.DefBodies(x); !ok && len(bodies) == 0 {
			ok = w.Referenced(x)
		} else if !ok {
			for _, body := range bodies {
				if m, err := xregex.Matches(xregex.Relax(body, prefix), word, w.Sigma()); err == nil && m {
					ok = true
					break
				}
			}
		}
		if ok {
			out = append(out, word)
		}
	}
	return out
}

// sweepCandidates compares walk and reference for every variable of q under
// every prefix the reference itself would enumerate, up to a budget of
// prefixes per query.
func sweepCandidates(t *testing.T, name string, q *cxrpq.Query, db *graph.DB, k int) {
	t.Helper()
	w, err := cxrpq.NewCandidateWalk(q, db, k)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	vars := w.Vars()
	budget := 400
	var rec func(i int, prefix map[string]string)
	rec = func(i int, prefix map[string]string) {
		if i == len(vars) || budget <= 0 {
			return
		}
		budget--
		want := filteredPathLabels(w, db, k, vars[i], prefix)
		got, err := w.Candidates(vars[i], prefix)
		if err != nil {
			t.Fatalf("%s k=%d: candidates(%s, %v): %v", name, k, vars[i], prefix, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s k=%d: candidates(%s, %v)\n got %q\nwant %q\nquery:\n%s", name, k, vars[i], prefix, got, want, q.Pattern)
		}
		for _, word := range want {
			prefix[vars[i]] = word
			rec(i+1, prefix)
		}
		delete(prefix, vars[i])
	}
	rec(0, map[string]string{})
}

func TestCandidatesMatchFilteredPathLabels(t *testing.T) {
	// The RandomQuery sweep over random graphs, finite and general templates.
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := workload.NewRNG(seed)
		q := workload.RandomQuery(r, seed%2 == 0)
		nodes := 3 + r.Intn(5)
		db := workload.Random(seed^0x5eed, nodes, nodes+r.Intn(2*nodes), "abc")
		for k := 0; k <= 3; k++ {
			sweepCandidates(t, fmt.Sprintf("seed %d", seed), q, db, k)
		}
	}

	// Shapes the templates do not draw.
	db := workload.Random(17, 7, 16, "abc")
	for name, src := range map[string]string{
		"free-referenced":   "ans(p)\np m : $x a\nm q : $y{b$x}\n",
		"free-unreferenced": "ans(p)\np m : $y{a|b}c?\nm q : $y\n",
		"two-bodies":        "ans(p, q)\np m : $x{a+}|$x{bc?}\nm q : $x\n",
		"two-bodies-prefix": "ans(p)\np m : $z{a|b}\nm n : $x{$z a}|c$x{b$z}\nn q : $x$z\n",
		"nested":            "ans(p, q)\np m : $y{$x{a|b}c?}\nm q : $x$y\n",
		"nested-deep":       "ans()\np q : $u{$v{$w{a}b|c}a?}$w$v$u\n",
	} {
		q := cxrpq.MustParse(src)
		for k := 0; k <= 4; k++ {
			sweepCandidates(t, name, q, db, k)
		}
	}

	// More than 64 labels: the walk's symbol loop and the automaton's class
	// expansion meet an alphabet wider than one machine word.
	var sb strings.Builder
	wide := []rune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789<>=~_;,")
	for i, r := range wide {
		fmt.Fprintf(&sb, "n%d %c n%d\n", i%9, r, (i*5+1)%9)
	}
	wideDB := graph.MustParse(sb.String())
	if n := len(wideDB.Alphabet()); n <= 64 {
		t.Fatalf("wide graph has %d labels, want > 64", n)
	}
	for name, src := range map[string]string{
		"wide-class": "ans(p)\np m : $x{[^a]+}\nm q : $x\n",
		"wide-free":  "ans(p)\np m : $x~?\nm q : $y{$x[a~]}\n",
	} {
		q := cxrpq.MustParse(src)
		for k := 0; k <= 2; k++ {
			sweepCandidates(t, name, q, wideDB, k)
		}
	}
}

// BenchmarkBoundedCandidates: the candidate list of the benchmark's `log`
// template on a graph of its tiny database's shape (20 nodes, 7 labels,
// log bound 7) — 10^5 path words, a few hundred of which match the body.
func BenchmarkBoundedCandidates(b *testing.B) {
	db := workload.Random(11, 20, 70, "abcdefg")
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{(a|b)+}\ny z : $w+c?\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := cxrpq.NewCandidateWalk(q, db, 7)
		if err != nil {
			b.Fatal(err)
		}
		ws, err := w.Candidates("w", nil)
		if err != nil || len(ws) < 2 {
			b.Fatalf("candidates = %d, %v", len(ws), err)
		}
	}
}

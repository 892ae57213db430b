package cxrpq_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

func TestFindWitnessUnary(t *testing.T) {
	db := graph.MustParse("u a m\nm b v")
	q := &ecrpq.Query{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : ab")}
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	w, ok, err := ecrpq.FindWitness(q, db, pattern.Tuple{u, v}, ecrpq.Options{})
	if err != nil || !ok {
		t.Fatalf("witness not found: %v %v", ok, err)
	}
	if w.Words[0] != "ab" {
		t.Fatalf("witness word = %q, want ab", w.Words[0])
	}
	if w.NodeOf["x"] != u || w.NodeOf["y"] != v {
		t.Fatalf("node assignment wrong: %v", w.NodeOf)
	}
	// no witness for a non-answer
	_, ok, err = ecrpq.FindWitness(q, db, pattern.Tuple{v, u}, ecrpq.Options{})
	if err != nil || ok {
		t.Fatalf("unexpected witness: %v %v", ok, err)
	}
}

func TestFindWitnessEqualityGroup(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 b v
u2 a m2
m2 b v2
`)
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans()\nx1 y1 : (a|b)+\nx2 y2 : a(a|b)*"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: &ecrpq.Equality{N: 2}}},
	}
	w, ok, err := ecrpq.FindWitness(q, db, nil, ecrpq.Options{})
	if err != nil || !ok {
		t.Fatalf("witness not found: %v %v", ok, err)
	}
	if w.Words[0] != w.Words[1] {
		t.Fatalf("equality witness words differ: %q vs %q", w.Words[0], w.Words[1])
	}
	if w.Words[0] == "" {
		t.Fatal("equality witness should be non-empty (regexes require ≥1 symbol)")
	}
}

func TestFindWitnessEqualLength(t *testing.T) {
	db := graph.MustParse(`
u a m1
m1 a v
u2 b m2
m2 b v2
`)
	q := &ecrpq.Query{
		Pattern: pattern.MustParseQuery("ans()\nx1 y1 : a+\nx2 y2 : b+"),
		Groups:  []ecrpq.Group{{Edges: []int{0, 1}, Rel: ecrpq.EqualLength(2, []rune("ab"))}},
	}
	w, ok, err := ecrpq.FindWitness(q, db, nil, ecrpq.Options{})
	if err != nil || !ok {
		t.Fatalf("witness not found: %v %v", ok, err)
	}
	if len(w.Words[0]) != len(w.Words[1]) {
		t.Fatalf("equal-length violated: %q vs %q", w.Words[0], w.Words[1])
	}
}

// labelsPath reports whether word labels a path of db from node from to node to.
func labelsPath(db *graph.DB, from int, word string, to int) bool {
	at := map[int]bool{from: true}
	for _, sym := range word {
		next := map[int]bool{}
		for u := range at {
			for _, out := range db.Out(u) {
				if out.Label == sym {
					next[out.To] = true
				}
			}
		}
		at = next
	}
	return at[to]
}

// checkWitness fails t unless w is a witness of q on db: every word matches
// its edge's label and labels a path between the nodes the edge is mapped to,
// and every group's relation holds of its words.
func checkWitness(t *testing.T, name string, q *ecrpq.Query, db *graph.DB, w *ecrpq.Witness) {
	t.Helper()
	sigma := xregex.MergeAlphabets(db.Alphabet(), xregex.AlphabetOf(q.Pattern.Labels()...))
	for ei, e := range q.Pattern.Edges {
		if ok, err := xregex.Matches(e.Label, w.Words[ei], sigma); err != nil || !ok {
			t.Fatalf("%s: word %q of edge %d does not match %s (%v)", name, w.Words[ei], ei, xregex.String(e.Label), err)
		}
		if !labelsPath(db, w.NodeOf[e.From], w.Words[ei], w.NodeOf[e.To]) {
			t.Fatalf("%s: word %q of edge %d labels no path from %d to %d", name, w.Words[ei], ei, w.NodeOf[e.From], w.NodeOf[e.To])
		}
	}
	for gi, g := range q.Groups {
		words := make([]string, len(g.Edges))
		for j, ei := range g.Edges {
			words[j] = w.Words[ei]
		}
		holds := ecrpq.EqualityContains(words)
		if rel, ok := g.Rel.(*ecrpq.NFARelation); ok {
			holds = rel.Contains(words)
		}
		if !holds {
			t.Fatalf("%s: group %d's relation does not hold of %q", name, gi, words)
		}
	}
}

// The words of a witness come off the group product search, whatever the
// group: a general relation with a component frozen (⊥-padded) while the
// other goes on, an equality of arity 3, and two parallel edges in no group,
// one language containing the other. Each is a shortest one for its endpoints.
func TestFindWitnessGroupShapes(t *testing.T) {
	ab := []rune("ab")
	for _, c := range []struct {
		name   string
		db     string
		src    string
		groups []ecrpq.Group
		tuple  []string
		words  []string
	}{
		{name: "frozen component", db: "u a m\nm b v\np a q\nq b r\nr a s\ns b t",
			src:    "ans(x, y, z, w)\nx y : (a|b)+\nz w : (a|b)+",
			groups: []ecrpq.Group{{Edges: []int{0, 1}, Rel: ecrpq.PrefixRelation(ab)}},
			tuple:  []string{"u", "v", "p", "t"}, words: []string{"ab", "abab"}},
		{name: "frozen at the source", db: "u a v\nv b w",
			src:    "ans(x, y, z, w)\nx y : a*\nz w : ab",
			groups: []ecrpq.Group{{Edges: []int{0, 1}, Rel: ecrpq.PrefixRelation(ab)}},
			tuple:  []string{"w", "w", "u", "w"}, words: []string{"", "ab"}},
		{name: "arity 3", db: "u a m\nm b v\np a q\nq b r\nq a r\ns a s\ns b t\nu b v",
			src:    "ans(x, y, z, w, s, t)\nx y : a(a|b)*\nz w : (a|b)+\ns t : a+b",
			groups: []ecrpq.Group{{Edges: []int{0, 1, 2}, Rel: &ecrpq.Equality{N: 3}}},
			tuple:  []string{"u", "v", "p", "r", "s", "t"}, words: []string{"ab", "ab", "ab"}},
		{name: "parallel edges", db: "u a m\nm a v\nu b n\nn a v\nv b w",
			src:   "ans(x, y, z)\nx y : a+\nx y : (a|b)+\ny z : b",
			tuple: []string{"u", "v", "w"}, words: []string{"aa", "aa", "b"}},
	} {
		db := graph.MustParse(c.db)
		q := &ecrpq.Query{Pattern: pattern.MustParseQuery(c.src), Groups: c.groups}
		tup := make(pattern.Tuple, len(c.tuple))
		for i, name := range c.tuple {
			tup[i], _ = db.Lookup(name)
		}
		w, ok, err := ecrpq.FindWitness(q, db, tup, ecrpq.Options{})
		if err != nil || !ok {
			t.Fatalf("%s: FindWitness = %v, %v", c.name, ok, err)
		}
		checkWitness(t, c.name, q, db, w)
		for i := range c.words {
			// Where two shortest words tie, either is one: hold the length.
			if len(w.Words[i]) != len(c.words[i]) {
				t.Fatalf("%s: words %q, want the lengths of %q", c.name, w.Words, c.words)
			}
		}
		tup[len(tup)-1], _ = db.Lookup("u") // no edge enters u
		if w, ok, err := ecrpq.FindWitness(q, db, tup, ecrpq.Options{}); err != nil || ok {
			t.Fatalf("%s: FindWitness of a non-answer = %v, %v, %v", c.name, w, ok, err)
		}
	}
}

// A plan of 2^11 Lemma 7 combinations is explained by the walk every other
// operation takes, and like the one-member query that spells out the branch
// the database chooses.
func TestExplainOverCap(t *testing.T) {
	wide, _, _, _ := overCapQueries()
	const word = "abbabaababb"
	var sb strings.Builder
	for i, r := range word {
		fmt.Fprintf(&sb, "$%c%d{%c}", r, i, r)
	}
	ref := cxrpq.MustParse("ans(x, y)\nx y : " + sb.String() + "\n")
	db := workload.Path(word, 1)
	s, _ := db.Lookup("s")
	end, _ := db.Lookup("t")
	want, ok, err := witness(cxrpq.Do(ref, freshCopy(db), cxrpq.Request{Op: "explain", Tuple: pattern.Tuple{s, end}}))
	if err != nil || !ok || want.Words[0] != word {
		t.Fatalf("the one-member equivalent: %v, %v, %v", want, ok, err)
	}
	for x := range wide.CXRE().Vars() {
		if _, ok := want.Images[x]; !ok {
			want.Images[x] = "" // defined on the branch not taken: forced to ε
		}
	}
	sess := cxrpq.MustPrepare(wide).Bind(db)
	spent := engine.NewBudget(context.Background(), time.Now().Add(-time.Second))
	if resp := sess.Do(cxrpq.Request{Op: "explain", Tuple: pattern.Tuple{s, end}, Budget: spent}); !errors.Is(resp.Err, engine.ErrCanceled) || resp.OK || resp.Explanation != nil {
		t.Fatalf("explain under a spent budget = %v, %v, %v; want engine.ErrCanceled", resp.Explanation, resp.OK, resp.Err)
	}
	if st := storeStats(sess); st.Results.Entries != 0 {
		t.Fatalf("%d results cached by a canceled explain", st.Results.Entries)
	}
	for call := 0; call < 2; call++ {
		got, ok, err := witness(sess.Do(cxrpq.Request{Op: "explain", Tuple: pattern.Tuple{s, end}}))
		if err != nil || !ok {
			t.Fatalf("Explain of the 2^11-member union = %v, %v", ok, err)
		}
		if !reflect.DeepEqual(got.NodeOf, want.NodeOf) || !reflect.DeepEqual(got.Words, want.Words) || !reflect.DeepEqual(got.Images, want.Images) {
			t.Fatalf("2^11 members: nodes %v words %q images %v, want %v %q %v", got.NodeOf, got.Words, got.Images, want.NodeOf, want.Words, want.Images)
		}
	}
	if st := storeStats(sess); st.ResultHits != 1 {
		t.Fatalf("the second Explain hit the result cache %d times, want 1", st.ResultHits)
	}
	if ex, ok, err := witness(sess.Do(cxrpq.Request{Op: "explain", Tuple: pattern.Tuple{end, s}})); err != nil || ok || ex != nil {
		t.Fatalf("Explain of a non-answer of the 2^11-member union = %v, %v, %v", ex, ok, err)
	}
}

func TestExplainVsf(t *testing.T) {
	db := graph.MustParse(`
u a v1
u a m
m c v2
`)
	q := cxrpq.MustParse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)($x|c)?
`)
	ex, ok, err := witness(cxrpq.Do(q, db, cxrpq.Request{Op: "explain"}))
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["x"] != "a" {
		t.Fatalf("image of x = %q, want a", ex.Images["x"])
	}
	if len(ex.Words) != 2 || ex.Words[0] != "a" {
		t.Fatalf("edge words = %v", ex.Words)
	}
	// the witness words must be a conjunctive match of the query's CXRE
	if !cxrpq.MatchTupleBool(q.CXRE(), ex.Words, db.Alphabet()) {
		t.Fatalf("explanation words %v are not a conjunctive match", ex.Words)
	}
}

func TestExplainVsfWithNonBasicDefs(t *testing.T) {
	// Step 3 eliminates z{x a}; the explanation must still report z's image.
	db := graph.New()
	s := db.Node("s")
	tn := db.Node("t")
	db.AddPath(s, "ba", tn)
	u := db.Node("u")
	v := db.Node("v")
	db.AddPath(u, "ba", v)
	q := cxrpq.MustParse(`
ans()
s t : $z{$x{b}a}
u v : $z
`)
	ex, ok, err := witness(cxrpq.Do(q, db, cxrpq.Request{Op: "explain"}))
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["z"] != "ba" {
		t.Fatalf("image of z = %q, want ba (images: %v)", ex.Images["z"], ex.Images)
	}
	if ex.Images["x"] != "b" {
		t.Fatalf("image of x = %q, want b", ex.Images["x"])
	}
}

func TestExplainBounded(t *testing.T) {
	db := graph.New()
	s := db.Node("s")
	tn := db.Node("t")
	db.AddPath(s, "#aabaa#", tn)
	q := cxrpq.MustParse("ans()\nx y : #$v{a+}b$v#")
	ex, ok, err := witness(cxrpq.Do(q, db, cxrpq.Request{Op: "explain", Semantics: "bounded", K: 3}))
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["v"] != "aa" {
		t.Fatalf("image of v = %q, want aa", ex.Images["v"])
	}
	if ex.Words[0] != "#aabaa#" {
		t.Fatalf("edge word = %q", ex.Words[0])
	}
}

func TestExplainAliasChain(t *testing.T) {
	// x{y} aliases: x's image equals y's.
	q := &cxrpq.Query{Pattern: &pattern.Graph{
		Out: nil,
		Edges: []pattern.Edge{
			{From: "p", To: "q", Label: xregex.MustParse("$y{a}$x{$y}")},
			{From: "r", To: "s", Label: xregex.MustParse("$x")},
		},
	}}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// p→q must read "aa" (y then x=y); r→s reads "a".
	db2 := graph.New()
	p := db2.Node("p")
	qq := db2.Node("q")
	db2.AddPath(p, "aa", qq)
	r := db2.Node("r")
	ss := db2.Node("s")
	db2.AddPath(r, "a", ss)
	ex, ok, err := witness(cxrpq.Do(q, db2, cxrpq.Request{Op: "explain"}))
	if err != nil || !ok {
		t.Fatalf("explain failed: %v %v", ok, err)
	}
	if ex.Images["x"] != "a" || ex.Images["y"] != "a" {
		t.Fatalf("alias images wrong: %v", ex.Images)
	}
}

// bounded explain reports the first witness in enumeration order: variables in
// ≺-topological order, candidate images ε first and then by length and
// alphabet, the leaf search in join order. These are the bounded queries
// of TestCheckAgreesWithEval and TestSessionRelCacheEviction on their
// graphs; the witnesses are the ones the enumerate-then-filter engine
// reported, so a candidate walk that lists the same words in another order
// shows up here.
func TestExplainBoundedFirstWitnessPinned(t *testing.T) {
	for _, c := range []struct {
		db     *graph.DB
		src    string
		k      int
		nodeOf map[string]int
		words  []string
		images map[string]string
	}{
		{workload.Random(31, 6, 14, "abc"), "ans(v1, v2)\nu v1 : $x{a|b}\nu v2 : ($x|c)+", 1,
			map[string]int{"u": 1, "v1": 0, "v2": 0}, []string{"a", "a"}, map[string]string{"x": "a"}},
		{workload.Random(11, 6, 14, "abc"), "ans(p, q)\np m : $x{a|b}c?\nm n : $y{$x|b}($x|$y)\nn q : $x+|b\n", 2,
			map[string]int{"m": 2, "n": 2, "p": 2, "q": 0}, []string{"b", "bb", "bb"}, map[string]string{"x": "b", "y": "b"}},
	} {
		ex, ok, err := witness(cxrpq.Do(cxrpq.MustParse(c.src), c.db, cxrpq.Request{Op: "explain", Semantics: "bounded", K: c.k}))
		if err != nil || !ok {
			t.Fatalf("%s: explain failed: %v %v", c.src, ok, err)
		}
		if !reflect.DeepEqual(ex.NodeOf, c.nodeOf) || !reflect.DeepEqual(ex.Words, c.words) || !reflect.DeepEqual(ex.Images, c.images) {
			t.Fatalf("%s: first witness nodes %v words %q images %v, want %v %q %v",
				c.src, ex.NodeOf, ex.Words, ex.Images, c.nodeOf, c.words, c.images)
		}
	}
}

package ecrpq

// Tests of the relation-group step: the seed masks must not change what
// bindSrc yields or in which order, and a warm product search must run on
// its scratch alone.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// runGroupPlan compiles q over db with pre pre-bound and returns every
// complete assignment followed by its cost, in the order the backtracking
// driver yields them. With unseeded set the group steps lose their masks and bind
// every source tuple, which is the loop the masks were added to.
func runGroupPlan(t *testing.T, q *Query, db *graph.DB, o Options, pre map[string]int, unseeded bool) (rows []int32, seeded int) {
	t.Helper()
	ev, err := newEvaluator(q, db, o, true)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.compile(pre, true)
	for i := range p.steps {
		if g := p.steps[i].grp; g != nil && g.seeds != nil {
			seeded++
			if unseeded {
				g.seeds = nil
			}
		}
	}
	p.run(nil, func(a []int32, cost int) bool {
		rows = append(append(rows, a...), int32(cost))
		return true
	})
	return rows, seeded
}

func TestGroupSeedDifferential(t *testing.T) {
	eq := func(n int, edges ...int) []Group { return []Group{{Edges: edges, Rel: &Equality{N: n}}} }
	cases := []struct {
		name   string
		src    string
		groups []Group
		pre    map[string]int
		seeded bool
	}{
		// The equality shapes of TestExecutorDifferential.
		{name: "equality", src: "ans(x, y)\nx y : (a|b)+\nx y : (a|b)+", groups: eq(2, 0, 1), seeded: true},
		{name: "equality+atom", src: "ans(x, z)\nx y : a(a|b)*\nu z : (a|b)+\ny u : b", groups: eq(2, 0, 1), seeded: true},
		// Both sources free, three components, sources pre-bound in part and in full.
		{name: "free-sources", src: "ans(x, u)\nx y : a(a|b)*\nu v : (a|b)+", groups: eq(2, 0, 1), seeded: true},
		{name: "arity-3", src: "ans(x, u, s)\nx y : (a|b)+\nu v : a(a|b)*\ns t : (a|b)b*", groups: eq(3, 0, 1, 2), seeded: true},
		{name: "pre-bound-one", src: "ans(x, u)\nx y : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), pre: map[string]int{"u": 2}, seeded: true},
		{name: "pre-bound-all", src: "ans(y, v)\nx y : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), pre: map[string]int{"x": 1, "u": 4}, seeded: true},
		{name: "pre-bound-target", src: "ans(x, u)\nx y : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), pre: map[string]int{"v": 3}, seeded: true},
		// One slot is the source of two components, and of all three.
		{name: "shared-source", src: "ans(x, y, z)\nx y : (a|b)+\nx z : a(a|b)*", groups: eq(2, 0, 1), seeded: true},
		{name: "shared-source-3", src: "ans(x, u)\nx y : (a|b)+\nx z : (a|b)+\nu v : b(a|b)*", groups: eq(3, 0, 1, 2), seeded: true},
		// Every start state accepts ε: each source tuple is its own end tuple
		// and nothing may be skipped. One ε-free component re-enables the masks.
		{name: "eps-starts", src: "ans(x, u)\nx y : (a|b)*\nu v : a*", groups: eq(2, 0, 1), seeded: false},
		{name: "eps-start-one", src: "ans(x, u)\nx y : (a|b)*\nu v : a+", groups: eq(2, 0, 1), seeded: true},
		// No symbol survives every start state: nothing is ever expanded.
		{name: "disjoint-starts", src: "ans(x, u)\nx y : a+\nu v : b+", groups: eq(2, 0, 1), seeded: true},
		// A second group, and a general relation (never seeded) beside an equality.
		{name: "two-groups", src: "ans(x, s)\nx y : (a|b)+\nu v : (a|b)+\ns t : a+\np q : a+", groups: []Group{
			{Edges: []int{0, 1}, Rel: &Equality{N: 2}}, {Edges: []int{2, 3}, Rel: &Equality{N: 2}}}, seeded: true},
	}
	weights := map[string]Options{
		"unranked":        {},
		"ranked/unit":     {Ranked: true},
		"ranked/weighted": {Ranked: true, Weight: func(label rune) int32 { return 1 + int32(label-'a')*3 }},
	}
	check := func(name string, q *Query, db *graph.DB, o Options, pre map[string]int, wantSeeded bool) int {
		t.Helper()
		got, seeded := runGroupPlan(t, q, db, o, pre, false)
		want, _ := runGroupPlan(t, q, db, o, pre, true)
		if (seeded > 0) != wantSeeded {
			t.Fatalf("%s: %d seeded group steps, want seeded=%v", name, seeded, wantSeeded)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: seeded bindings differ from the unseeded loop\n got %v\nwant %v", name, got, want)
		}
		return len(got)
	}
	yielded := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		db := probeRandomDB(seed, 8, 19, "ab")
		for _, tc := range cases {
			q := &Query{Pattern: pattern.MustParseQuery(tc.src), Groups: tc.groups}
			for wname, o := range weights {
				yielded[tc.name] += check(fmt.Sprintf("seed %d %s %s", seed, tc.name, wname), q, db, o, tc.pre, tc.seeded)
			}
		}
	}
	for _, tc := range cases {
		if (yielded[tc.name] == 0) != (tc.name == "disjoint-starts") {
			t.Fatalf("%s yielded %d values over all seeds: the case is not exercised", tc.name, yielded[tc.name])
		}
	}

	// More than 64 labels: the masks span two words, and the symbols that
	// matter sit in the second.
	var sb strings.Builder
	wide := []rune("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz~<>=_;,")
	for i, r := range wide {
		fmt.Fprintf(&sb, "n%d %c n%d\nn%d %c n%d\n", i%7, r, (3*i+1)%7, (i+2)%7, r, (5*i)%7)
	}
	wideDB := graph.MustParse(sb.String())
	if wideDB.Index().SymWords() < 2 {
		t.Fatalf("wide graph has %d labels, want > 64", len(wideDB.Alphabet()))
	}
	q, err := ParseQuery("ans(x, u)\nx y : [x-z~]+\nu v : [^a]+\nrel equality 0 1", wideDB.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	for wname, o := range weights {
		if check("wide "+wname, q, wideDB, o, nil, true) == 0 {
			t.Fatal("wide: no bindings: the case is not exercised")
		}
	}
}

// A search owns no memory: what it needs is in the group's scratch, warm
// after the first expansions. One that dies at its source allocates nothing,
// and one that visits thousands of configurations allocates no more than one
// that visits a handful — nor does it carry a witness search's parent columns.
func TestGroupExpandSteadyStateAllocs(t *testing.T) {
	// A 30×30 grid of a-edges right and b-edges down, plus 40 sinks.
	db := graph.New()
	const side = 30
	id := func(r, c int) int { return db.Node(fmt.Sprintf("g%d_%d", r, c)) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				db.AddEdge(id(r, c), 'a', id(r, c+1))
			}
			if r+1 < side {
				db.AddEdge(id(r, c), 'b', id(r+1, c))
			}
		}
	}
	corner, sink := int32(id(0, 0)), int32(id(side-1, side-1))
	q := &Query{Pattern: pattern.MustParseQuery("ans(x, u)\nx y : (a|b)+\nu v : (a|b)+"),
		Groups: []Group{{Edges: []int{0, 1}, Rel: &Equality{N: 2}}}}
	for name, o := range map[string]Options{"unit": {Ranked: true}, "weighted": {Ranked: true, Weight: func(rune) int32 { return 2 }}} {
		ev, err := newEvaluator(q, db, o, true)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.gscratch[0]
		configs := func(src ...int32) int { sc.search(ev, src); return len(sc.cost) }
		near := int32(id(side-2, side-2)) // two steps from the sink
		big, small := configs(corner, corner), configs(near, near)
		if big < 100*small || configs(sink, sink) != 1 {
			t.Fatalf("%s: searches visit %d and %d configurations: the case is not exercised", name, big, small)
		}
		if n := testing.AllocsPerRun(50, func() { sc.search(ev, []int32{sink, sink}) }); n != 0 {
			t.Fatalf("%s: a warm expansion that dies at the source allocates %v objects, want 0", name, n)
		}
		// A live search appends its end tuples to the memo slab, which grows by
		// doubling: O(1) amortized, whatever the search visited.
		live := testing.AllocsPerRun(50, func() { sc.search(ev, []int32{near, near}) })
		wide := testing.AllocsPerRun(50, func() { sc.search(ev, []int32{corner, corner}) })
		if live > 2 || wide > 2 {
			t.Fatalf("%s: warm live expansions allocate %v (%d configurations) and %v (%d configurations) objects, want ≤ 2",
				name, live, small, wide, big)
		}
		// The parent columns belong to the witness search alone, which reads
		// its words back along them and gives them up again.
		if sc.parent != nil || sc.via != nil {
			t.Fatalf("%s: a search nobody reads words from kept %d parent and %d step entries", name, len(sc.parent), len(sc.via))
		}
		words, ok := sc.witness(ev, []int32{near, near}, []int32{sink, sink})
		if !ok || len(words[0]) != 2 || words[1] != words[0] || sc.parent != nil || sc.via != nil || sc.want != nil {
			t.Fatalf("%s: witness search = %q, %v, leaving %d parent entries", name, words, ok, len(sc.parent))
		}
	}
}

// BenchmarkGroupExpand: an equality group with both sources free over a
// 64-node graph — the join step of a simple CXRPQ. "bindings" is the whole
// step on a fresh evaluator (every source pair, seed masks, memo, searches);
// "search" is one warm product search from a live source pair.
func BenchmarkGroupExpand(b *testing.B) {
	db := probeRandomDB(5, 64, 320, "abcdefghij")
	q := &Query{Pattern: pattern.MustParseQuery("ans(x, v)\nx y : a(b|c)\nu v : [a-j]+"),
		Groups: []Group{{Edges: []int{0, 1}, Rel: &Equality{N: 2}}}}
	for name, o := range map[string]Options{"unit": {}, "weighted": {Ranked: true, Weight: engine.Weight(func(rune) int32 { return 1 })}} {
		b.Run("bindings/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev, err := newEvaluator(q, db, o, true)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				ev.compile(nil, false).run(nil, func([]int32, int) bool { rows++; return true })
				if rows == 0 {
					b.Fatal("no bindings: the case is not exercised")
				}
			}
		})
		b.Run("search/"+name, func(b *testing.B) {
			ev, err := newEvaluator(q, db, o, true)
			if err != nil {
				b.Fatal(err)
			}
			sc := ev.gscratch[0]
			var src []int32
			for u := int32(0); src == nil && int(u) < db.NumNodes(); u++ {
				if exp := sc.search(ev, []int32{u, u}); exp.to > exp.from {
					src = []int32{u, u}
				}
			}
			if src == nil {
				b.Fatal("no live source pair")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.search(ev, src)
			}
		})
	}
}

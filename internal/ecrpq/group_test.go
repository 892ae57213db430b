package ecrpq

// Tests of the relation-group step: the seed masks and partner rows must not
// change what the step binds or in which order, the most bound group runs
// first, the step stops at its budget, and a warm product search must run on
// its scratch alone.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// runGroupPlan compiles q over db with pre pre-bound and returns every
// complete assignment followed by its cost, in the order the backtracking
// driver yields them, with the number of seeded group steps, of free source
// slots that have a partner row, and of expansions the groups memoized. With
// plain set the group steps lose their masks and partner rows and bind every
// free source to every node, which is the loop both were added to.
func runGroupPlan(t *testing.T, q *Query, db *graph.DB, o Options, pre map[string]int, plain bool) (rows []int32, seeded, partnered, exps int) {
	t.Helper()
	ev, err := newEvaluator(q, db, o, true)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.compile(pre, true)
	for i := range p.steps {
		g := p.steps[i].grp
		if g == nil || p.steps[i].lvl != 0 { // a group's steps are its levels
			continue
		}
		if g.seeds != nil {
			seeded++
		}
		for _, pts := range g.partners {
			if len(pts) > 0 {
				partnered++
			}
		}
		if plain {
			g.seeds = nil
			clear(g.partners)
		}
	}
	var s search
	s.reset(p, nil)
	for _, cost, ok := s.next(); ok; _, cost, ok = s.next() {
		rows = append(append(rows, s.a...), int32(cost))
	}
	for _, sc := range ev.gscratch {
		exps += len(sc.exps)
	}
	return rows, seeded, partnered, exps
}

// partnerMeets reads, for every free slot of q's plan with two partner rows
// and every pair of nodes at the rows' endpoints, both rows, and counts the
// pairs whose rows are non-empty and meet in fewer nodes than the shorter
// holds: in some nodes (smaller) and in none (empty).
func partnerMeets(t *testing.T, q *Query, db *graph.DB, pre map[string]int) (smaller, empty int) {
	t.Helper()
	ev, err := newEvaluator(q, db, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range ev.compile(pre, true).steps {
		if st.grp == nil {
			continue
		}
		for _, pts := range st.grp.partners {
			if len(pts) != 2 {
				continue
			}
			for u := range db.NumNodes() {
				for v := range db.NumNodes() {
					r0, _ := pts[0].atom.row(u, pts[0].forward)
					r1, _ := pts[1].atom.row(v, pts[1].forward)
					if pts[0].near == pts[1].near && u != v || len(r0) == 0 || len(r1) == 0 {
						continue
					}
					switch m := meet(nil, r0, r1); {
					case len(m) == 0:
						empty++
					case len(m) < min(len(r0), len(r1)):
						smaller++
					}
				}
			}
		}
	}
	return smaller, empty
}

func TestGroupSeedDifferential(t *testing.T) {
	eq := func(n int, edges ...int) []Group { return []Group{{Edges: edges, Rel: &Equality{N: n}}} }
	const twoPartners = "ans(x, z)\nx y : (a|b)+\ny z : (a|b)+\nz u : a"
	cases := []struct {
		name   string
		src    string
		groups []Group
		pre    map[string]int
		sweep  string // a variable pre-bound to each node in turn
		seeded bool
		// partnered is the number of free source slots that draw from a
		// partner row instead of every node.
		partnered int
		// fewer: the partner rows leave the group strictly fewer source
		// tuples to expand than the plain loop, on every seed.
		fewer bool
	}{
		// The equality shapes of TestExecutorDifferential.
		{name: "equality", src: "ans(x, y)\nx y : (a|b)+\nx y : (a|b)+", groups: eq(2, 0, 1), seeded: true},
		{name: "equality+atom", src: "ans(x, z)\nx y : a(a|b)*\nu z : (a|b)+\ny u : b", groups: eq(2, 0, 1), seeded: true, partnered: 1},
		// Both sources free, three components, sources pre-bound in part and in full.
		{name: "free-sources", src: "ans(x, u)\nx y : a(a|b)*\nu v : (a|b)+", groups: eq(2, 0, 1), seeded: true},
		{name: "arity-3", src: "ans(x, u, s)\nx y : (a|b)+\nu v : a(a|b)*\ns t : (a|b)b*", groups: eq(3, 0, 1, 2), seeded: true},
		{name: "pre-bound-one", src: "ans(x, u)\nx y : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), pre: map[string]int{"u": 2}, seeded: true},
		{name: "pre-bound-all", src: "ans(y, v)\nx y : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), pre: map[string]int{"x": 1, "u": 4}, seeded: true},
		{name: "pre-bound-target", src: "ans(x, u)\nx y : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), pre: map[string]int{"v": 3}, seeded: true, partnered: 1},
		// Two free sources, the first with a partner row from the first or the
		// second component's bound target: the candidate lists belong to the
		// free slots, not to the components.
		{name: "aligned", src: "ans(x, w)\nx y : (a|b)+\nx z : (a|b)+\nw v : (a|b)+", groups: eq(3, 0, 1, 2), sweep: "y", seeded: true, partnered: 1},
		{name: "misaligned", src: "ans(x, w)\nx y : (a|b)+\nx z : (a|b)+\nw v : (a|b)+", groups: eq(3, 0, 1, 2), sweep: "z", seeded: true, partnered: 1},
		// A definition and its reference, the second's source the first's
		// target: the target lies in the forward row of the source bound one
		// level earlier. Listed the other way round, the earlier slot is the
		// target, and the later one lies in its backward row. A chain of three
		// partners each slot but the first.
		{name: "chain", src: "ans(x, z)\nx y : a(a|b)*\ny z : (a|b)+", groups: eq(2, 0, 1), seeded: true, partnered: 1, fewer: true},
		{name: "chain-reversed", src: "ans(x, z)\ny z : (a|b)+\nx y : a(a|b)*", groups: eq(2, 0, 1), seeded: true, partnered: 1},
		{name: "chain-3", src: "ans(x, w)\nx y : a(a|b)*\ny z : (a|b)+\nz w : (a|b)+", groups: eq(3, 0, 1, 2), seeded: true, partnered: 2},
		// y lies in x's forward row and in the backward row of z, which an
		// atom binds: it ranges over the rows' intersection.
		{name: "two-partners", src: twoPartners, groups: eq(2, 0, 1), seeded: true, partnered: 1},
		// A slot that is source and target in one group: the other slot is
		// bound one level earlier, so the later one has two partner rows — as
		// it has when the other is bound on entry.
		{name: "source-and-target", src: "ans(x, y)\nx y : (a|b)+\ny x : (a|b)+", groups: eq(2, 0, 1), seeded: true, partnered: 1},
		{name: "source-and-target-bound", src: "ans(x, y)\nx y : (a|b)+\ny x : (a|b)+", groups: eq(2, 0, 1), sweep: "x", seeded: true, partnered: 1},
		// A self-loop component is no partner of itself.
		{name: "self-loop", src: "ans(x, u)\nx x : (a|b)+\nu v : (a|b)+", groups: eq(2, 0, 1), sweep: "v", seeded: true, partnered: 1},
		// A target bound by an earlier atom.
		{name: "target-from-atom", src: "ans(x, u)\nx y : (a|b)+\nu v : (a|b)+\nv w : a", groups: eq(2, 0, 1), seeded: true, partnered: 1},
		// The first group binds the second's sources and one target.
		{name: "group-binds-group", src: "ans(p, t)\np q : (a|b)+\nr s : (a|b)+\nt q : a(a|b)*\ns w : (a|b)+", groups: []Group{
			{Edges: []int{0, 1}, Rel: &Equality{N: 2}}, {Edges: []int{2, 3}, Rel: &Equality{N: 2}}}, seeded: true, partnered: 1},
		// A general relation with a bound target.
		{name: "nfa-bound-target", src: "ans(x, u)\nx y : (a|b)+\nu v : (a|b)+", groups: []Group{
			{Edges: []int{0, 1}, Rel: PrefixRelation([]rune("ab"))}}, sweep: "v", partnered: 1},
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
	check := func(name string, q *Query, db *graph.DB, o Options, pre map[string]int, wantSeeded bool, wantPartnered int, fewer bool) int {
		t.Helper()
		got, seeded, partnered, exps := runGroupPlan(t, q, db, o, pre, false)
		want, _, _, plainExps := runGroupPlan(t, q, db, o, pre, true)
		if (seeded > 0) != wantSeeded || partnered != wantPartnered {
			t.Fatalf("%s: %d seeded group steps and %d partnered slots, want seeded=%v and %d", name, seeded, partnered, wantSeeded, wantPartnered)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: narrowed bindings differ from the plain loop\n got %v\nwant %v", name, got, want)
		}
		if fewer && exps >= plainExps {
			t.Fatalf("%s: %d expansions memoized, the plain loop %d: want strictly fewer", name, exps, plainExps)
		}
		return len(got)
	}
	yielded := map[string]int{}
	smaller := 0
	for seed := int64(1); seed <= 3; seed++ {
		db := probeRandomDB(seed, 8, 19, "ab")
		for _, tc := range cases {
			q := &Query{Pattern: pattern.MustParseQuery(tc.src), Groups: tc.groups}
			pres := []map[string]int{tc.pre}
			if tc.sweep != "" {
				pres = nil
				for u := range db.NumNodes() {
					pres = append(pres, map[string]int{tc.sweep: u})
				}
			}
			for wname, o := range weights {
				for _, pre := range pres {
					yielded[tc.name] += check(fmt.Sprintf("seed %d %s %s pre %v", seed, tc.name, wname, pre), q, db, o, pre, tc.seeded, tc.partnered, tc.fewer)
				}
			}
			if tc.name == "two-partners" {
				n, _ := partnerMeets(t, q, db, tc.pre)
				smaller += n
			}
		}
	}
	for _, tc := range cases {
		if (yielded[tc.name] == 0) != (tc.name == "disjoint-starts") {
			t.Fatalf("%s yielded %d values over all seeds: the case is not exercised", tc.name, yielded[tc.name])
		}
	}
	if smaller == 0 {
		t.Fatal("two-partners: no intersection is shorter than the shorter row: the case is not exercised")
	}

	// The two-partners shape where y's rows never meet: x0's forward row is
	// {y1} and z3's backward row {y2}, so nothing is expanded.
	apart := graph.MustParse("x0 a y1\ny2 a z3\nz3 a u4")
	q2 := &Query{Pattern: pattern.MustParseQuery(twoPartners), Groups: eq(2, 0, 1)}
	if _, empty := partnerMeets(t, q2, apart, nil); empty == 0 {
		t.Fatal("two-partners-empty: every pair of non-empty rows meets: the case is not exercised")
	}
	for wname, o := range weights {
		if n := check("two-partners-empty "+wname, q2, apart, o, nil, true, 1, false); n != 0 {
			t.Fatalf("two-partners-empty %s: %d values, want none", wname, n)
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
		if check("wide "+wname, q, wideDB, o, nil, true, 0, false) == 0 {
			t.Fatal("wide: no bindings: the case is not exercised")
		}
	}
}

// The groups follow the atoms, the one with the most bound variables first:
// in the nested vstar-free member below the atom binds x and _x_1_0, two
// variables of the second group and none of the first, and that group then
// binds both sources of the first. Equally bound groups keep query order,
// and a CRPQ's plan is JoinOrder's atom order alone.
func TestGroupOrderMostBound(t *testing.T) {
	db := probeRandomDB(3, 20, 70, "abc")
	groupOrder := func(src string, pre map[string]int) (order []int, p *plan, ev *evaluator) {
		t.Helper()
		ev, err := newEvaluator(MustParseQuery(src, []rune("abc")), db, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		p = ev.compile(pre, false)
		for _, st := range p.steps {
			if st.grp != nil && st.lvl == 0 { // a group's steps are its levels
				order = append(order, slices.Index(ev.gscratch, st.grp.sc))
			}
		}
		return order, p, ev
	}
	nested := "ans(x, z)\nw0 x : c|a\nx _x_1_0 : a*\n_x_1_0 _x_1_1 : .*\n_x_1_1 y : b*\ny _y_2_0 : .*\n_y_2_0 z : .*\nrel equality 3 5\nrel equality 0 2 4"
	order, p, _ := groupOrder(nested, nil)
	if !slices.Equal(order, []int{1, 0}) {
		t.Fatalf("nested member: groups compiled in order %v, want [1 0] ({0,2,4} before {3,5})", order)
	}
	if g := p.steps[len(p.steps)-1].grp; len(g.free) != 0 {
		t.Fatalf("nested member: the last group has free sources %v, want none", g.free)
	}
	for _, tc := range []struct {
		pre  map[string]int
		want []int
	}{{nil, []int{0, 1}}, {map[string]int{"s": 1}, []int{1, 0}}, {map[string]int{"x": 1, "s": 2}, []int{0, 1}}} {
		if order, _, _ := groupOrder("ans(x, s)\nx y : a+\nu v : a+\ns t : b+\np q : b+\nrel equality 0 1\nrel equality 2 3", tc.pre); !slices.Equal(order, tc.want) {
			t.Fatalf("two groups, pre %v: compiled in order %v, want %v", tc.pre, order, tc.want)
		}
	}
	// With z pre-bound the chain is placed from its bound end: y z, x y, w x.
	_, p, ev := groupOrder("ans(w, z)\nw x : a(a|b)*\nx y : b+\ny z : (b|c)c*", map[string]int{"z": 2})
	if len(p.steps) != 3 {
		t.Fatalf("CRPQ: %d steps, want its 3 atoms", len(p.steps))
	}
	for i, ei := range []int{2, 1, 0} {
		if p.steps[i].src != &ev.atoms[ei] {
			t.Fatalf("CRPQ: step %d is not atom %d", i, ei)
		}
	}
}

// A join whose time is all small group expansions — tens of thousands of a
// dozen pops each, one row per sixteen — has no poll of its own per
// expansion: the searches' pop count (every 256 across all of them), the
// seed skips and the driver's descents carry it. After a cancellation at most
// 256 more pops run and at most runPollEvery more rows arrive, and the run
// reports ErrCanceled; equality (seeded) and equal-length (unseeded) groups,
// lazy and materializing.
func TestGroupBudgetGrain(t *testing.T) {
	db := probeRandomDB(11, 300, 900, "ab")
	for _, src := range []string{
		"ans(x, u)\nx y : ab\nu y : ab\nrel equality 0 1",
		"ans(x, u)\nx y : ab\nu y : ba\nrel equal-length 0 1",
	} {
		q := MustParseQuery(src, []rune("ab"))
		for _, lazy := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			ev, err := newEvaluator(q, db, Options{Budget: engine.NewBudget(ctx, time.Time{})}, lazy)
			if err != nil {
				t.Fatal(err)
			}
			sc := ev.gscratch[0]
			rows, after, popsAtCancel, expsAtCancel := 0, 0, 0, 0
			ev.stream(nil, func([]int32, int) bool {
				if rows++; rows == 100 {
					cancel()
					popsAtCancel, expsAtCancel = sc.pops, len(sc.exps)
				} else if rows > 100 {
					after++
				}
				return true
			})
			cancel()
			if !errors.Is(ev.bud.Err(), engine.ErrCanceled) || rows < 100 || expsAtCancel < 256 {
				t.Fatalf("%q lazy %v: the run ended after %d rows and %d expansions with %v: the case is not exercised", src, lazy, rows, expsAtCancel, ev.bud.Err())
			}
			if pops, exps := sc.pops-popsAtCancel, len(sc.exps)-expsAtCancel; pops > 256 || after > runPollEvery {
				t.Fatalf("%q lazy %v: %d pops, %d expansions and %d rows after the cancellation, want at most 256 and %d rows",
					src, lazy, pops, exps, after, runPollEvery)
			}
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
// "bindings/chain" the same for a definition and its reference, whose second
// source is the first's target; "search" is one warm product search from a
// live source pair.
func BenchmarkGroupExpand(b *testing.B) {
	db := probeRandomDB(5, 64, 320, "abcdefghij")
	eq := []Group{{Edges: []int{0, 1}, Rel: &Equality{N: 2}}}
	q := &Query{Pattern: pattern.MustParseQuery("ans(x, v)\nx y : [a-c][a-j]\nu v : [a-j]+"), Groups: eq}
	chain := &Query{Pattern: pattern.MustParseQuery("ans(x, z)\nx y : [a-c][a-j]\ny z : [a-j]+"), Groups: eq}
	bindings := func(q *Query, o Options) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev, err := newEvaluator(q, db, o, true)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				ev.compile(nil, false).stream(nil, func([]int32, int) bool { rows++; return true })
				if rows == 0 {
					b.Fatal("no bindings: the case is not exercised")
				}
			}
		}
	}
	b.Run("bindings/chain", bindings(chain, Options{}))
	for name, o := range map[string]Options{"unit": {}, "weighted": {Ranked: true, Weight: engine.Weight(func(rune) int32 { return 1 })}} {
		b.Run("bindings/"+name, bindings(q, o))
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

// A group's levels are plan steps, and the best-first driver opens them for
// one assignment after another: each level reads its seed mask off the
// assignment it is opened on, not off the level the backtracking search ran
// before it. Any-k over groups with one, two and three free sources yields
// the answer set.
func TestGroupLevelsAnyK(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		db := probeRandomDB(seed, 9, 22, "abc")
		for _, src := range []string{
			"ans(x, z)\nx y : (a|b)+\nz u : (a|b)+",
			"ans(x, u)\nx y : a(a|b)*\nz u : (a|c)+\nw v : b*",
			"ans(y, u)\nx y : (a|b)\nz u : (a|b)c*",
		} {
			q := &Query{Pattern: pattern.MustParseQuery(src), Groups: []Group{{Edges: []int{0, 1}, Rel: &Equality{N: 2}}}}
			if strings.Count(src, "\n") == 3 {
				q.Groups[0] = Group{Edges: []int{0, 1, 2}, Rel: &Equality{N: 3}}
			}
			want, err := Eval(q, db)
			if err != nil {
				t.Fatal(err)
			}
			ak := NewAnyK(Options{})
			if err := ak.AddUnion(MembersOf(db, q), nil); err != nil {
				t.Fatal(err)
			}
			got := pattern.NewTupleSet()
			for row, _, ok := ak.Next(); ok; row, _, ok = ak.Next() {
				got.AddRow(row)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d %q: any-k has %d rows, the set %d", seed, src, got.Len(), want.Len())
			}
		}
	}
}

package graph

import (
	"reflect"
	"testing"
)

// rebuildFrom returns a structurally fresh DB with the same node interning
// order and edge multiset as d — the ground truth every delta-maintained
// view is compared against.
func rebuildFrom(d *DB) *DB {
	f := New()
	for id := 0; id < d.NumNodes(); id++ {
		f.Node(d.Name(id))
	}
	for u := 0; u < d.NumNodes(); u++ {
		for _, e := range d.Out(u) {
			f.AddEdge(e.From, e.Label, e.To)
		}
	}
	return f
}

// assertIndexEqual compares every (node, label) span of the two databases'
// indexes as multisets.
func assertIndexEqual(t *testing.T, label string, got, want *DB) {
	t.Helper()
	gix, wix := got.Index(), want.Index()
	if gix.NumNodes() != wix.NumNodes() {
		t.Fatalf("%s: index nodes %d, want %d", label, gix.NumNodes(), wix.NumNodes())
	}
	counts := func(sp []int32) map[int32]int {
		m := map[int32]int{}
		for _, v := range sp {
			m[v]++
		}
		return m
	}
	for u := 0; u < wix.NumNodes(); u++ {
		for _, r := range want.Alphabet() {
			if g, w := counts(gix.OutByLabel(u, r)), counts(wix.OutByLabel(u, r)); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: out span (%d, %c): %v, want %v", label, u, r, g, w)
			}
			if g, w := counts(gix.InByLabel(u, r)), counts(wix.InByLabel(u, r)); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: in span (%d, %c): %v, want %v", label, u, r, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Alphabet(), want.Alphabet()) {
		t.Fatalf("%s: alphabet %q, want %q", label, string(got.Alphabet()), string(want.Alphabet()))
	}
}

func TestApplyDeltaMaintainsDerivedState(t *testing.T) {
	d := MustParse("u a v\nv b w\nw a u\nu b w")
	// Materialize every derived view before mutating.
	d.Index()
	d.Alphabet()

	steps := []Delta{
		{Add: []DeltaEdge{{"v", 'a', "w"}}},                                    // existing nodes, existing label
		{Add: []DeltaEdge{{"x", 'b', "u"}, {"x", 'a', "v"}}},                   // interns a new node
		{Add: []DeltaEdge{{"u", 'c', "x"}}},                                    // brand-new label: rebuild path
		{Del: []DeltaEdge{{"u", 'b', "w"}}},                                    // removal: rebuild path
		{Add: []DeltaEdge{{"y", 'a', "y"}}, Del: []DeltaEdge{{"v", 'a', "w"}}}, // mixed
	}
	for i, delta := range steps {
		info, err := d.ApplyDelta(delta)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if want := len(delta.Del) == 0; info.InsertOnly() != want {
			t.Fatalf("step %d: InsertOnly=%v, want %v", i, info.InsertOnly(), want)
		}
		fresh := rebuildFrom(d)
		assertIndexEqual(t, "step", d, fresh)
		if d.NumEdges() != fresh.NumEdges() {
			t.Fatalf("step %d: %d edges, want %d", i, d.NumEdges(), fresh.NumEdges())
		}
	}
}

// TestDeltaRetainedCounters is the regression test for the former
// rebuild-everything behavior: a delta touching one label must revalidate
// the alphabet without recomputation and extend the index rather than
// rebuild it.
func TestDeltaRetainedCounters(t *testing.T) {
	d := MustParse("u a v\nv b w\nw c u")
	d.Index()
	d.Alphabet()
	base := d.MaintStats()

	if _, err := d.ApplyDelta(Delta{Add: []DeltaEdge{{"u", 'a', "w"}}}); err != nil {
		t.Fatal(err)
	}
	d.Index()
	d.Alphabet()
	ms := d.MaintStats()

	if got := ms.IndexExtended - base.IndexExtended; got != 1 {
		t.Fatalf("IndexExtended moved by %d, want 1 (%+v)", got, ms)
	}
	if ms.IndexRebuilds != base.IndexRebuilds {
		t.Fatalf("index rebuilt on an insert-only single-label delta (%+v)", ms)
	}
	if got := ms.AlphaRetained - base.AlphaRetained; got != 1 {
		t.Fatalf("AlphaRetained moved by %d, want 1 (%+v)", got, ms)
	}
	if ms.AlphaRebuilds != base.AlphaRebuilds {
		t.Fatalf("alphabet rebuilt on a known-label delta (%+v)", ms)
	}

	// A removal must take the rebuild path for the index.
	if _, err := d.ApplyDelta(Delta{Del: []DeltaEdge{{"v", 'b', "w"}}}); err != nil {
		t.Fatal(err)
	}
	d.Index()
	ms2 := d.MaintStats()
	if ms2.IndexRebuilds != ms.IndexRebuilds+1 {
		t.Fatalf("removal did not rebuild the index: %+v -> %+v", ms, ms2)
	}
	// The removal dropped b's last edge: the alphabet must shrink.
	if string(d.Alphabet()) != "ac" {
		t.Fatalf("alphabet after removing last b edge: %q, want \"ac\"", string(d.Alphabet()))
	}
}

func TestDeltaSinceCancellation(t *testing.T) {
	d := MustParse("u a v\nv a w")
	rev := d.Revision()
	if _, err := d.ApplyDelta(Delta{Add: []DeltaEdge{{"u", 'a', "w"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelta(Delta{Del: []DeltaEdge{{"u", 'a', "w"}}}); err != nil {
		t.Fatal(err)
	}
	info := d.DeltaSince(rev)
	if info == nil {
		t.Fatal("window not covered")
	}
	if !info.Empty() {
		t.Fatalf("add-then-remove round trip not empty: %+v", info)
	}
	// Removing first and re-adding cancels the same way.
	rev = d.Revision()
	if _, err := d.ApplyDelta(Delta{Del: []DeltaEdge{{"v", 'a', "w"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelta(Delta{Add: []DeltaEdge{{"v", 'a', "w"}}}); err != nil {
		t.Fatal(err)
	}
	if info := d.DeltaSince(rev); info == nil || !info.Empty() {
		t.Fatalf("remove-then-add round trip not empty: %+v", info)
	}
}

func TestDeltaSinceWindow(t *testing.T) {
	d := New()
	u, v := d.Node("u"), d.Node("v")
	rev := d.Revision()
	d.AddEdge(u, 'a', v)
	w := d.Node("w")
	d.AddEdge(v, 'b', w)

	info := d.DeltaSince(rev)
	if info == nil {
		t.Fatal("window not covered")
	}
	if len(info.Added) != 2 || info.NewNodes != 1 || info.FirstNewNode() != w {
		t.Fatalf("unexpected window: %+v", info)
	}
	if string(info.Labels) != "ab" || string(info.NewLabels) != "ab" {
		t.Fatalf("labels %q new %q, want ab/ab", string(info.Labels), string(info.NewLabels))
	}
	if d.DeltaSince(d.Revision()+1) != nil {
		t.Fatal("future revision must not be covered")
	}
	if got := d.DeltaSince(d.Revision()); got == nil || !got.Empty() {
		t.Fatalf("empty window: %+v", got)
	}
}

func TestDeltaLogOverflow(t *testing.T) {
	d := New()
	a, b := d.Node("a"), d.Node("b")
	rev := d.Revision()
	for i := 0; i < maxDeltaLog+10; i++ {
		d.AddEdge(a, 'x', b)
	}
	if d.DeltaSince(rev) != nil {
		t.Fatal("overflowed log must not cover the full window")
	}
	recent := d.Revision() - 5
	info := d.DeltaSince(recent)
	if info == nil || len(info.Added) != 5 {
		t.Fatalf("recent window after overflow: %+v", info)
	}
	// Derived state still correct after overflow (rebuild path).
	fresh := rebuildFrom(d)
	assertIndexEqual(t, "overflow", d, fresh)
}

func TestApplyDeltaRejectsBadRemovals(t *testing.T) {
	d := MustParse("u a v")
	rev := d.Revision()
	cases := []Delta{
		{Del: []DeltaEdge{{"u", 'b', "v"}}},                                    // wrong label
		{Del: []DeltaEdge{{"u", 'a', "z"}}},                                    // unknown node
		{Del: []DeltaEdge{{"u", 'a', "v"}, {"u", 'a', "v"}}},                   // too many occurrences
		{Add: []DeltaEdge{{"u", 'a', "v"}}, Del: []DeltaEdge{{"v", 'a', "u"}}}, // del validated pre-add
	}
	for i, delta := range cases {
		if _, err := d.ApplyDelta(delta); err == nil {
			t.Fatalf("case %d: bad removal accepted", i)
		}
		if d.Revision() != rev || d.NumEdges() != 1 {
			t.Fatalf("case %d: rejected delta left a partial application", i)
		}
	}
}

func TestParseDeltaEdges(t *testing.T) {
	got, err := ParseDeltaEdges("u a v\n# comment\n\n v b w ")
	if err != nil {
		t.Fatal(err)
	}
	want := []DeltaEdge{{"u", 'a', "v"}, {"v", 'b', "w"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, err := ParseDeltaEdges("u ab v"); err == nil {
		t.Fatal("multi-rune label accepted")
	}
	if _, err := ParseDeltaEdges("u a"); err == nil {
		t.Fatal("two-field line accepted")
	}
}

// TestIndexExtensionChain drives many consecutive insert-only deltas through
// the same DB so extension chains (and eventually compaction) happen, and
// checks the spans plus path queries against a fresh rebuild each time.
func TestIndexExtensionChain(t *testing.T) {
	d := MustParse("n0 a n1\nn1 b n2\nn2 a n0")
	d.Index()
	names := []string{"n0", "n1", "n2"}
	for i := 0; i < 24; i++ {
		from := names[i%len(names)]
		to := names[(i*7+1)%len(names)]
		delta := Delta{Add: []DeltaEdge{{from, []rune("ab")[i%2], to}}}
		if i%5 == 4 {
			nn := "m" + string(rune('0'+i))
			delta.Add = append(delta.Add, DeltaEdge{nn, 'a', names[0]})
			names = append(names, nn)
		}
		if _, err := d.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		fresh := rebuildFrom(d)
		assertIndexEqual(t, "chain", d, fresh)
		if got, want := d.HasPath(0, "aba", 2), fresh.HasPath(0, "aba", 2); got != want {
			t.Fatalf("step %d: HasPath diverged: %v vs %v", i, got, want)
		}
	}
	if ms := d.MaintStats(); ms.IndexExtended == 0 {
		t.Fatalf("no index extensions happened: %+v", ms)
	}
}

package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Regression: AddNode used to derive the anonymous name as "#len(names)",
// so a caller that had already interned a node literally named "#N" got
// that existing id back — two logically distinct nodes silently aliased.
func TestAddNodeAliasRegression(t *testing.T) {
	d := New()
	collided := d.Node("#1") // the name AddNode would generate for the second node
	first := d.AddNode()     // "#0": free
	second := d.AddNode()    // would be "#1" — must probe past the collision
	if first == collided || second == collided || first == second {
		t.Fatalf("AddNode aliased an existing node: #1=%d, AddNode()=%d,%d", collided, first, second)
	}
	if d.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", d.NumNodes())
	}
	seen := map[string]bool{}
	for i := 0; i < d.NumNodes(); i++ {
		if name := d.Name(i); seen[name] {
			t.Fatalf("duplicate node name %q", name)
		} else {
			seen[name] = true
		}
	}
}

func TestAddNodeManyCollisions(t *testing.T) {
	d := New()
	for i := 2; i < 12; i++ {
		d.Node(fmt.Sprintf("#%d", i)) // pre-intern a dense block of generated names
	}
	id := d.AddNode()
	if got := d.Name(id); got != "#12" {
		t.Fatalf("AddNode produced %q, want the first fresh generated name #12", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	d := MustParse("u a v\nu a w\nv b w\n")
	snap := d.Snapshot()
	view := snap.DB()
	if snap.Revision() != d.Revision() {
		t.Fatalf("snapshot revision %d != live %d", snap.Revision(), d.Revision())
	}
	if d.Snapshot() != snap {
		t.Fatal("Snapshot without intervening mutation should return the cached handle")
	}

	// Mutate the live DB: add edges and nodes, remove an edge, new label.
	if _, err := d.ApplyDelta(Delta{
		Add: []DeltaEdge{{From: "w", Label: 'c', To: "x"}, {From: "u", Label: 'a', To: "x"}},
		Del: []DeltaEdge{{From: "v", Label: 'b', To: "w"}},
	}); err != nil {
		t.Fatal(err)
	}

	if view.NumNodes() != 3 || view.NumEdges() != 3 {
		t.Fatalf("snapshot sizes changed: %d nodes %d edges", view.NumNodes(), view.NumEdges())
	}
	if _, ok := view.Lookup("x"); ok {
		t.Fatal("snapshot sees a node interned after it was taken")
	}
	if id, ok := d.Lookup("x"); !ok || id != 3 {
		t.Fatalf("live DB lost the new node: id=%d ok=%v", id, ok)
	}
	u, _ := view.Lookup("u")
	v, _ := view.Lookup("v")
	w, _ := view.Lookup("w")
	if len(view.Out(u)) != 2 {
		t.Fatalf("snapshot out(u) = %v", view.Out(u))
	}
	if !view.HasPath(v, "b", w) {
		t.Fatal("snapshot lost the removed-later edge v-b->w")
	}
	if got := string(view.Alphabet()); got != "ab" {
		t.Fatalf("snapshot alphabet = %q, want ab", got)
	}
	if got := string(d.Alphabet()); got != "ac" {
		t.Fatalf("live alphabet = %q, want ac", got)
	}
	if info := view.DeltaSince(snap.Revision()); info == nil || !info.Empty() {
		t.Fatalf("DeltaSince on the pinned view should be empty, got %+v", info)
	}

	// A second snapshot pins the new revision; the first is untouched.
	snap2 := d.Snapshot()
	if snap2 == snap || snap2.Revision() == snap.Revision() {
		t.Fatal("second snapshot should pin the new revision")
	}
	if _, ok := snap2.DB().Lookup("x"); !ok {
		t.Fatal("second snapshot misses the new node")
	}
	if view.NumEdges() != 3 {
		t.Fatal("first snapshot perturbed by taking the second")
	}
	if s3 := view.Snapshot(); s3.DB() != view {
		t.Fatal("snapshotting a frozen view should return the view itself")
	}
}

// A view holds no adjacency of its own: after random batches of inserts and
// removals, each with a view taken after it, every view still reads exactly
// the edges of its revision — Out, In, Index spans and NumEdges alike — as a
// fresh database built from them does. With concurrent, a reader goroutine
// checks each view while the writer goes on.
func TestSnapshotIsolationRandomBatches(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			d := New()
			var live []DeltaEdge
			type pin struct {
				view  *DB
				edges []DeltaEdge
			}
			var pins []pin
			var wg sync.WaitGroup
			for batch := 0; batch < 40; batch++ {
				var delta Delta
				for k := rng.Intn(6); k > 0 && len(live) > 0; k-- {
					i := rng.Intn(len(live))
					delta.Del = append(delta.Del, live[i])
					live = append(live[:i], live[i+1:]...)
				}
				for k := 1 + rng.Intn(8); k > 0; k-- {
					e := DeltaEdge{From: fmt.Sprintf("n%d", rng.Intn(30)), Label: rune("ab"[rng.Intn(2)]), To: fmt.Sprintf("n%d", rng.Intn(30))}
					delta.Add = append(delta.Add, e)
					live = append(live, e)
				}
				if _, err := d.ApplyDelta(delta); err != nil {
					t.Fatal(err)
				}
				p := pin{d.Snapshot().DB(), slices.Clone(live)}
				pins = append(pins, p)
				if concurrent {
					wg.Add(1)
					go func() {
						defer wg.Done()
						checkView(t, p.view, p.edges)
					}()
				}
			}
			wg.Wait()
			for _, p := range pins {
				checkView(t, p.view, p.edges)
			}
		})
	}
}

// checkView compares view with a fresh database holding edges over view's
// nodes.
func checkView(t *testing.T, view *DB, edges []DeltaEdge) {
	t.Helper()
	ref := New()
	for u := range view.NumNodes() {
		ref.Node(view.Name(u))
	}
	for _, e := range edges {
		ref.AddEdgeNames(e.From, e.Label, e.To)
	}
	if view.NumEdges() != ref.NumEdges() {
		t.Errorf("view at revision %d: %d edges, want %d", view.Revision(), view.NumEdges(), ref.NumEdges())
		return
	}
	sorted := func(es []Edge) []Edge {
		es = slices.Clone(es)
		slices.SortFunc(es, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Label, b.Label), cmp.Compare(a.To, b.To))
		})
		return es
	}
	vix, rix := view.Index(), ref.Index()
	for u := range view.NumNodes() {
		if got, want := sorted(view.Out(u)), sorted(ref.Out(u)); !slices.Equal(got, want) {
			t.Errorf("view at revision %d: Out(%d) = %v, want %v", view.Revision(), u, got, want)
		}
		if got, want := sorted(view.In(u)), sorted(ref.In(u)); !slices.Equal(got, want) {
			t.Errorf("view at revision %d: In(%d) = %v, want %v", view.Revision(), u, got, want)
		}
		for _, r := range "ab" {
			sortedSpan := func(sp []int32) []int32 { sp = slices.Clone(sp); slices.Sort(sp); return sp }
			if got, want := sortedSpan(vix.OutByLabel(u, r)), sortedSpan(rix.OutByLabel(u, r)); !slices.Equal(got, want) {
				t.Errorf("view at revision %d: OutByLabel(%d, %c) = %v, want %v", view.Revision(), u, r, got, want)
			}
			if got, want := sortedSpan(vix.InByLabel(u, r)), sortedSpan(rix.InByLabel(u, r)); !slices.Equal(got, want) {
				t.Errorf("view at revision %d: InByLabel(%d, %c) = %v, want %v", view.Revision(), u, r, got, want)
			}
		}
	}
}

func TestSnapshotMutatorsPanic(t *testing.T) {
	d := MustParse("u a v\n")
	view := d.Snapshot().DB()
	for name, f := range map[string]func(){
		"Node":       func() { view.Node("fresh") },
		"AddNode":    func() { view.AddNode() },
		"AddEdge":    func() { view.AddEdge(0, 'z', 1) },
		"ApplyDelta": func() { view.ApplyDelta(Delta{Add: []DeltaEdge{{From: "u", Label: 'a', To: "v"}}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen view did not panic", name)
				}
			}()
			f()
		}()
	}
	// Read-path entry points must keep working on the frozen view.
	if id, ok := view.Lookup("u"); !ok || view.Name(id) != "u" {
		t.Fatal("Lookup broken on frozen view")
	}
}

// Many snapshots interleaved with mutations: every pinned view must keep
// resolving exactly the names it covered, and never the later ones. This
// exercises the layered name map across fold boundaries.
func TestSnapshotLayeredLookup(t *testing.T) {
	d := New()
	type pin struct {
		view  *DB
		nodes int
	}
	var pins []pin
	for i := 0; i < 100; i++ {
		a, b := fmt.Sprintf("n%d", 2*i), fmt.Sprintf("n%d", 2*i+1)
		d.AddEdgeNames(a, 'a', b)
		s := d.Snapshot()
		pins = append(pins, pin{view: s.DB(), nodes: d.NumNodes()})
	}
	for k, p := range pins {
		if p.view.NumNodes() != p.nodes {
			t.Fatalf("pin %d: NumNodes %d, want %d", k, p.view.NumNodes(), p.nodes)
		}
		for id := 0; id < p.nodes; id++ {
			name := p.view.Name(id)
			if got, ok := p.view.Lookup(name); !ok || got != id {
				t.Fatalf("pin %d: Lookup(%q) = %d,%v want %d", k, name, got, ok, id)
			}
		}
		if _, ok := p.view.Lookup(fmt.Sprintf("n%d", p.nodes)); ok {
			t.Fatalf("pin %d resolves a name interned later", k)
		}
	}
}

// Readers hold pinned snapshots while the writer keeps mutating — run under
// -race this proves the no-shared-lock contract.
func TestSnapshotConcurrentReaders(t *testing.T) {
	d := MustParse("u a v\nv a w\nw b u\n")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		snap := d.Snapshot()
		wg.Add(1)
		go func(view *DB, wantEdges int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if view.NumEdges() != wantEdges {
					t.Errorf("snapshot edge count drifted: %d != %d", view.NumEdges(), wantEdges)
					return
				}
				ix := view.Index()
				u, _ := view.Lookup("u")
				_ = ix.OutByLabel(u, 'a')
				_ = view.HasPath(u, "aab", u)
			}
		}(snap.DB(), d.NumEdges())
		// Writer keeps going between reader launches.
		for i := 0; i < 50; i++ {
			if _, err := d.ApplyDelta(Delta{Add: []DeltaEdge{
				{From: fmt.Sprintf("m%d_%d", r, i), Label: 'a', To: "u"},
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkSnapshotAfterInsert is one publish of a write path: one edge
// inserted into a graph of n nodes and 4n edges over two labels, then a
// Snapshot of the result. The graph is built again, off the clock, every 256
// inserts, so the index overlay a publish extends stays as small on every
// run, whatever b.N is.
func BenchmarkSnapshotAfterInsert(b *testing.B) {
	labels := []rune{'a', 'b'}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			build := func() *DB {
				rng := rand.New(rand.NewSource(1))
				d := New()
				for range n {
					d.AddNode()
				}
				for range 4 * n {
					d.AddEdge(rng.Intn(n), labels[rng.Intn(2)], rng.Intn(n))
				}
				d.Snapshot()
				return d
			}
			rng := rand.New(rand.NewSource(2))
			d := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if i > 0 && i%256 == 0 {
					b.StopTimer()
					d = build()
					b.StartTimer()
				}
				d.AddEdge(rng.Intn(n), labels[rng.Intn(2)], rng.Intn(n))
				d.Snapshot()
			}
		})
	}
}

package ecrpq

// Regression tests for the MS-BFS level-capture bug: ReachBatchEx used to
// merge bits arriving mid-expand into a not-yet-processed frontier
// configuration's live pending mask, expanding them one level early and
// understating downstream first-hit levels (the hit sets stayed correct, the
// distances did not). The bug needed two batched sources meeting at a
// configuration, so batch-of-one sweeps never showed it — these tests pin
// the batched prefetch memos against the single-source probes and against
// ground-truth forward distances.

import (
	"fmt"
	"testing"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
)

// replica of workload.Random(seed, nodes, edges, alphabet) — workload can't
// be imported from a package-internal test (cycle through cxrpq)
func probeRandomDB(seed int64, nodes, edges int, alphabet string) *graph.DB {
	s := uint64(seed)*2654435761 + 1
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	intn := func(n int) int { return int(next() % uint64(n)) }
	d := graph.New()
	for i := 0; i < nodes; i++ {
		d.AddNode()
	}
	al := []rune(alphabet)
	for i := 0; i < edges; i++ {
		d.AddEdge(intn(nodes), al[intn(len(al))], intn(nodes))
	}
	return d
}

// rankedEvaluator is a fresh ranked evaluator: empty memos, so probes run
// single-source searches until something is prefetched.
func rankedEvaluator(t *testing.T, q *Query, db *graph.DB) *evaluator {
	t.Helper()
	ev, err := newEvaluator(q, db, Options{Ranked: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// The batched prefetches must populate exactly the memo entries the
// single-source probes would — same hits, same levels — or the any-k
// enumerator's costs silently drift from the drain's.
func TestPrefetchMatchesSingle(t *testing.T) {
	db := probeRandomDB(1, 30, 110, "ab")
	q, err := ParseQuery("ans(x, z)\nx y : a+\ny z : b+", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for u := 0; u < db.NumNodes(); u++ {
		all = append(all, u)
	}
	for ei := 0; ei < 2; ei++ {
		evF, evB := rankedEvaluator(t, q, db), rankedEvaluator(t, q, db)
		evF.atoms[ei].prefetch(all, true)
		evB.atoms[ei].prefetch(all, false)
		for u := 0; u < db.NumNodes(); u++ {
			evS := rankedEvaluator(t, q, db)
			fh, fl := evF.atoms[ei].probe(u, true)
			sh, sl := evS.atoms[ei].probe(u, true)
			if fmt.Sprint(fh) != fmt.Sprint(sh) || fmt.Sprint(fl) != fmt.Sprint(sl) {
				t.Fatalf("edge %d fwd src %d: batch (%v,%v) single (%v,%v)", ei, u, fh, fl, sh, sl)
			}
			bh, bl := evB.atoms[ei].probe(u, false)
			bh2, bl2 := evS.atoms[ei].probe(u, false)
			if fmt.Sprint(bh) != fmt.Sprint(bh2) || fmt.Sprint(bl) != fmt.Sprint(bl2) {
				t.Fatalf("edge %d bwd tgt %d: batch (%v,%v) single (%v,%v)", ei, u, bh, bl, bh2, bl2)
			}
		}
	}
}

// Backward levels — batched and single-source alike — must agree with the
// forward kernel's distances: dist(u→v) is direction-independent.
func TestBackwardAgainstForward(t *testing.T) {
	db := probeRandomDB(1, 30, 110, "ab")
	q, err := ParseQuery("ans(x, z)\nx y : a+\ny z : b+", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	ev := rankedEvaluator(t, q, db)
	fdist := map[[2]int]int32{}
	for u := 0; u < db.NumNodes(); u++ {
		hits, levs := ev.atoms[0].probe(u, true)
		for i, v := range hits {
			fdist[[2]int{u, v}] = levs[i]
		}
	}
	evB := rankedEvaluator(t, q, db)
	var all []int
	for u := 0; u < db.NumNodes(); u++ {
		all = append(all, u)
	}
	evB.atoms[0].prefetch(all, false)
	for v := 0; v < db.NumNodes(); v++ {
		bh, bl := evB.atoms[0].probe(v, false)
		for i, u := range bh {
			if want := fdist[[2]int{u, v}]; bl[i] != want {
				t.Fatalf("batch backward: dist(%d->%d) = %d, forward says %d", u, v, bl[i], want)
			}
		}
	}
}

// A batch of one source must match the single-source kernel bit for bit
// (the historical failure needed two sources; this pins the trivial case).
func TestBatchOfOneBackward(t *testing.T) {
	db := probeRandomDB(1, 30, 110, "ab")
	q, err := ParseQuery("ans(x, z)\nx y : a+\ny z : b+", []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	ev := rankedEvaluator(t, q, db)
	rc := ev.atoms[0].atom.reverse()
	for v := 0; v < db.NumNodes(); v++ {
		sh, sl := engine.Reach(ev.ix, rc, v, false, engine.ReachOpts{Levels: true})
		one := engine.ReachBatchEx(ev.ix, rc, []int{v}, false,
			engine.ReachOpts{Levels: true})
		if fmt.Sprint(sh) != fmt.Sprint(one.Hits[0]) || fmt.Sprint(sl) != fmt.Sprint(one.Levs[0]) {
			t.Fatalf("batch-of-one tgt %d: single (%v,%v) batch (%v,%v)", v, sh, sl, one.Hits[0], one.Levs[0])
		}
	}
}

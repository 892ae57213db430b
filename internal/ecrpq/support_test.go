package ecrpq

// Tests of the support read: what an atom source computes when the plan
// reads only one endpoint of the atom.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

func randClassical(r *rand.Rand, letters string, depth int) xregex.Node {
	letter := func() xregex.Node { return xregex.Word(string(letters[r.Intn(len(letters))])) }
	if depth <= 0 {
		return letter()
	}
	kid := func() xregex.Node { return randClassical(r, letters, depth-1) }
	switch r.Intn(8) {
	case 0:
		return &xregex.Cat{Kids: []xregex.Node{kid(), kid()}}
	case 1:
		return &xregex.Alt{Kids: []xregex.Node{kid(), kid()}}
	case 2:
		return &xregex.Star{Kid: kid()}
	case 3:
		return &xregex.Plus{Kid: kid()}
	case 4:
		return &xregex.Opt{Kid: kid()}
	case 5:
		return xregex.Word("")
	}
	return letter()
}

// stopped is a budget that was canceled before the evaluation started.
func stopped() *engine.Budget {
	b := engine.NewBudget(nil, time.Time{})
	b.Stop()
	return b
}

// TestSupportMatchesRelation: over random labels (ε-accepting ones included)
// and random graphs (one with more than 64 labels), the forward support of a
// probe atom is the set of sources of RelationFor's relation and the backward
// support the set of its targets, which the store files once; PathExists
// says whether they are empty. A sweep under a
// canceled budget installs nothing — whoever asks next, under whatever
// budget, gets the whole answer — and reports the cancellation.
func TestSupportMatchesRelation(t *testing.T) {
	t.Parallel()
	wide := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-=_~^%" // 69 labels
	r := rand.New(rand.NewSource(17))
	cuts := 0
	for gi, labels := range []string{"ab", "abc", wide} {
		n := 30 + 25*gi
		db := probeRandomDB(int64(40+gi), n, 2*n+gi*n, labels)
		sigma := []rune(labels)
		for li := 0; li < 25; li++ {
			label := randClassical(r, labels[:2+gi], 3)
			switch li {
			case 0:
				label = xregex.MustParse("(ab)*") // ε-accepting: every node is a source and a target
			case 1:
				label = xregex.MustParse("a+")
			case 2:
				label = &xregex.Empty{}
			}
			name := fmt.Sprintf("graph %d, %s", gi, xregex.String(label))
			rel, err := RelationFor(db, label, sigma)
			if err != nil {
				t.Fatal(err)
			}
			want := [2][]int{} // targets, sources
			for u := 0; u < n; u++ {
				if vs, _ := rel.backward(u); len(vs) > 0 {
					want[0] = append(want[0], u)
				}
				if len(rel.Forward(u)) > 0 {
					want[1] = append(want[1], u)
				}
			}
			q := &Query{Pattern: &pattern.Graph{Out: []string{"x"}, Edges: []pattern.Edge{{From: "x", To: "y", Label: label}}}}
			evaluator := func(bud *engine.Budget) *probeAtom {
				ev, err := newEvaluator(q, db, Options{Budget: bud}, false)
				if err != nil {
					t.Fatal(err)
				}
				return &ev.atoms[0]
			}
			// Every fact is asked for under a budget canceled beforehand first:
			// the sweep is cut at its first level boundary and must leave nothing
			// behind — or runs out before it, and is complete.
			store, sigma := Atoms(db), evaluator(nil).ev.sigma // the alphabet is part of what a fact is filed under
			for i, forward := range []bool{false, true} {
				held := store.Stats().Supports.Entries
				if sup := evaluator(stopped()).support(forward); sup == nil {
					cuts++
					if store.Stats().Supports.Entries != held {
						t.Fatalf("%s: a cut sweep was installed", name)
					}
					if _, err := store.support(atomOf(t, store, label, sigma), !forward, stopped()); !errors.Is(err, engine.ErrCanceled) {
						t.Fatalf("%s: support under a canceled budget: %v", name, err)
					}
				} else if fmt.Sprint(bitList(sup)) != fmt.Sprint(want[i]) {
					t.Fatalf("%s: a sweep that beat its canceled budget returned %v, want %v", name, bitList(sup), want[i])
				}

				atom := evaluator(nil)
				if got := bitList(atom.support(forward)); fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Fatalf("%s: support(forward=%v) = %v, the relation has %v", name, forward, got, want[i])
				}
				if len(atom.fwd.rows)+len(atom.rev.rows) != 0 {
					t.Fatalf("%s: the support probed rows", name)
				}
				kern := store.Stats().Kernel
				sup, err := store.support(atomOf(t, store, label, sigma), !forward, stopped()) // stored by now: no sweep, no budget
				if err != nil || fmt.Sprint(bitList(sup)) != fmt.Sprint(want[i]) || len(sup) != (n+63)/64 {
					t.Fatalf("%s: support(targets=%v) = %v, %v; want %v over %d nodes", name, !forward, bitList(sup), err, want[i], n)
				}
				if store.Stats().Kernel != kern {
					t.Fatalf("%s: the stored support was swept again", name)
				}
			}
			ok, err := store.PathExists(atomOf(t, store, label, sigma), stopped())
			if err != nil && !errors.Is(err, engine.ErrCanceled) || ok != (rel.size > 0) && err == nil {
				t.Fatalf("%s: PathExists under a canceled budget = %v, %v; the relation has %d pairs", name, ok, err, rel.size)
			}
			if ok, err := store.PathExists(atomOf(t, store, label, sigma), nil); err != nil || ok != (rel.size > 0) {
				t.Fatalf("%s: PathExists = %v, %v; the relation has %d pairs", name, ok, err, rel.size)
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no sweep was cut by its budget: the case is not exercised")
	}
}

// TestPathExistsCanceled: a probe the budget cuts before any hit is unknown,
// not no, and says so.
func TestPathExistsCanceled(t *testing.T) {
	store := Atoms(graph.MustParse("n0 a n1\nn1 a n2\nn2 b n3\n"))
	label, sigma := xregex.MustParse("aab"), []rune("ab")
	if ok, err := store.PathExists(atomOf(t, store, label, sigma), stopped()); ok || !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("PathExists under a canceled budget = %v, %v, want false and ErrCanceled", ok, err)
	}
	if v := store.Verdicts(); len(v) != 0 {
		t.Fatalf("the cut probe left a verdict: %v", v)
	}
	if ok, err := store.PathExists(atomOf(t, store, label, sigma), nil); !ok || err != nil {
		t.Fatalf("PathExists = %v, %v", ok, err)
	}
	if ok, err := store.PathExists(atomOf(t, store, label, sigma), stopped()); !ok || err != nil {
		t.Fatalf("PathExists of a stored verdict under a canceled budget = %v, %v", ok, err)
	}
	if ok, err := store.PathExists(atomOf(t, store, xregex.MustParse("ba"), sigma), nil); ok || err != nil {
		t.Fatalf("PathExists(ba) = %v, %v", ok, err)
	}
}

// TestSupportAnswersUnreadEndpoint: an unranked plan answers a step whose far
// endpoint nothing reads from the support and probes no row for it, whether
// the near endpoint is bound, scanned, or the target side; a ranked plan
// reads every endpoint and never asks for a support.
func TestSupportAnswersUnreadEndpoint(t *testing.T) {
	db := probeRandomDB(3, 60, 150, "ab")
	for _, tc := range []struct {
		name, src string
		atom      int  // the atom with the unread endpoint
		forward   bool // the support it is answered from
	}{
		{"bound near", "ans(x, y)\nx y : a\ny z : b+", 1, true},
		{"bound target", "ans(x, y)\nx y : a\nz y : b+", 1, false},
		{"scan", "ans(x)\nx y : (a|b)+", 0, true},
		{"scan targets", "ans(y)\nx y : (a|b)+", 0, false},
	} {
		q, err := ParseQuery(tc.src, []rune("ab"))
		if err != nil {
			t.Fatal(err)
		}
		for _, lazy := range []bool{false, true} {
			for _, ranked := range []bool{false, true} {
				ev, err := newEvaluator(q, db, Options{Ranked: ranked}, lazy)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				ev.stream(nil, func([]int32, int) bool { rows++; return true })
				if rows == 0 {
					t.Fatalf("%s: no answers, the case is not exercised", tc.name)
				}
				a := &ev.atoms[tc.atom]
				sup, other := a.fwd.sup, a.rev.sup
				if !tc.forward {
					sup, other = other, sup
				}
				switch {
				case ranked && (sup != nil || other != nil):
					t.Fatalf("%s lazy=%v: a ranked run asked for a support", tc.name, lazy)
				case !ranked && (sup == nil || other != nil || len(a.fwd.rows)+len(a.rev.rows) != 0):
					t.Fatalf("%s lazy=%v: support %v, other direction %v, %d rows probed; want the one support and no row",
						tc.name, lazy, sup != nil, other != nil, len(a.fwd.rows)+len(a.rev.rows))
				}
			}
		}
	}
}

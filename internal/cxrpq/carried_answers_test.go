package cxrpq_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

// The carried answers: an eval answer, or a true verdict, filed before a
// window that only inserted is carried stale and settled by the first read
// after it — the old rows merged with those of the joins seeded on the
// window's frontier — and must equal what a fresh evaluation on a fresh copy
// of the graph answers, whatever windows it was carried over. Over a window
// that removed edges an eval answer whose rows name the atom sources —
// every source is reached along the pattern from an output source variable
// — is settled the same way, less its rows with a frontier node at such a
// variable's position; any other answer is computed again.

// carriedTexts are the fixed queries of the differential, each with the
// shape it covers.
var carriedTexts = []struct{ text, semantics string }{
	{"ans(x, z)\nx y : a\ny z : b", ""},
	{"ans(x, z)\nx y : a\nz y : b", ""}, // two atoms into one target: only the second one's source reaches a new edge
	{"ans(y)\nx y : a+", ""},            // a source variable nothing else reads
	{"ans(x)\nx x : (ab)+", ""},         // a self-loop
	{"ans(x, y)\nx y : a*", ""},         // ε: every new node is an answer
	{"ans()\nx y : ab\ny z : b", ""},    // Boolean
	{"ans(x, z)\nx y : $w{a|b}b*\ny z : $w", ""},
	{"ans(y, u)\nx y : $w{a|b}\nz u : $w", ""}, // group components whose sources nothing else reads
	{"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v", ""},
	{"ans(x)\nx x : $w{a|b}$w", ""}, // a group over a self-loop
	{"ans(x, y)\nx y : $w{a|b}\ny z : $w+", "bounded"},
	{"ans(x, y)\nx y : $w{(a|b)+}\ny z : $w", "bounded"},
	{"ans(y)\nx y : $w{a|b}\nz y : $w+", "bounded"}, // sources nothing else reads: read as target supports unseeded
	{"ans(x)\nx x : $w{a|b}$w*", "bounded"},
	{"ans(y)\nx y : a+b*", "bounded"},
	{"ans(x, z)\nx y : $w{a|b}\nz y : $w", "bounded"}, // an in-star: the sources meet only at their target, an arrival reaches one
}

// randomCRPQ draws a CRPQ of one to three atoms over the variables x, y and
// z — self-loops included — and an output of up to two of them.
func randomCRPQ(r *workload.RNG) string {
	labels := []string{"a", "b", "ab", "a+", "b*", "a|b", "(ab)*", "ba?"}
	vars := []string{"x", "y", "z"}
	var body strings.Builder
	used := map[string]bool{}
	for i := 0; i <= r.Intn(3); i++ {
		u, v := vars[r.Intn(3)], vars[r.Intn(3)]
		used[u], used[v] = true, true
		fmt.Fprintf(&body, "%s %s : %s\n", u, v, labels[r.Intn(len(labels))])
	}
	var out []string
	for _, z := range vars {
		if used[z] && len(out) < 2 && r.Intn(2) == 0 {
			out = append(out, z)
		}
	}
	return "ans(" + strings.Join(out, ", ") + ")\n" + body.String()
}

// size is the number of tuples of an eval response, 0 for a verdict.
func size(r cxrpq.Response) int {
	if r.Tuples == nil {
		return 0
	}
	return r.Tuples.Len()
}

// carriedQuery is one query of a seed: its plan, the session on the live
// database, and the request it is asked.
type carriedQuery struct {
	plan *cxrpq.Plan
	sess *cxrpq.Session
	req  cxrpq.Request
}

// carriedMove applies one random window to db and reports what kind it was:
// arrivals shaped like update_read's (fresh nodes with edges into the
// graph, which nothing points at), inserts between existing nodes, removals
// — of one or two edges, or of every edge under one label — or an edge under
// a new label.
func carriedMove(t *testing.T, db *graph.DB, r *workload.RNG, step int, kind int) {
	t.Helper()
	node := func() string { return db.Name(r.Intn(db.NumNodes())) }
	label := func() rune { return []rune("ab")[r.Intn(2)] }
	var d graph.Delta
	switch kind {
	case 0:
		for j := 0; j <= r.Intn(3); j++ {
			fresh := fmt.Sprintf("u%d_%d", step, j)
			for k := 0; k <= r.Intn(2); k++ {
				d.Add = append(d.Add, graph.DeltaEdge{From: fresh, Label: label(), To: node()})
			}
		}
	case 1:
		for k := 0; k <= r.Intn(3); k++ {
			d.Add = append(d.Add, graph.DeltaEdge{From: node(), Label: label(), To: node()})
		}
	case 2:
		if r.Intn(3) == 0 { // every edge under one label: true verdicts turn false
			l := label()
			for u := range db.NumNodes() {
				for _, e := range db.Out(u) {
					if e.Label == l {
						d.Del = append(d.Del, graph.DeltaEdge{From: db.Name(e.From), Label: l, To: db.Name(e.To)})
					}
				}
			}
			break
		}
		for k := 0; k <= r.Intn(2) && db.NumEdges() > 0; k++ {
			for {
				if out := db.Out(r.Intn(db.NumNodes())); len(out) > 0 {
					e := out[r.Intn(len(out))]
					d.Del = append(d.Del, graph.DeltaEdge{From: db.Name(e.From), Label: e.Label, To: db.Name(e.To)})
					break
				}
			}
		}
		if len(d.Del) == 2 && d.Del[0] == d.Del[1] {
			d.Del = d.Del[:1]
		}
	default:
		d.Add = []graph.DeltaEdge{{From: node(), Label: 'c', To: node()}}
	}
	if _, err := db.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
}

// TestCarriedAnswersDifferential: random CRPQs, vstar-free unions and
// bounded (k = 1, 2) queries, with the fixed shapes of carriedTexts, over
// random graphs under random windows — arrivals, inserts between existing
// nodes, composites of several unread moves, removals, new labels, and one
// window the delta log no longer covers. After every move each eval answer,
// and each bool verdict asked twice at the revision before, equals a fresh
// evaluation on a fresh copy of the graph; the union arm, the bounded arm
// and the verdicts each settle some carried answer, both eval arms some over
// a window that removed edges, and no verdict is settled over one. Then the
// 2^11-member union of overCapQueries is settled over an insert, a removal
// and a mixed window, and a union whose rows do not name its sources is
// dropped and evaluated afresh over a removal (carriedWindows).
func TestCarriedAnswersDifferential(t *testing.T) {
	t.Parallel()
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	carried := map[string]int{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := workload.NewRNG(seed + 1000)
		db := workload.Random(seed, 6+r.Intn(6), 10+r.Intn(14), "ab")
		var qs []carriedQuery
		add := func(text, semantics string, k int) {
			p, err := cxrpq.PrepareSrc(text)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, text, err)
			}
			qs = append(qs, carriedQuery{plan: p, sess: p.Bind(db), req: cxrpq.Request{Op: "eval", Semantics: semantics, K: k}})
		}
		for i := range 3 {
			c := carriedTexts[(3*int(seed)+i)%len(carriedTexts)]
			add(c.text, c.semantics, 1+int(seed)%2)
		}
		add(randomCRPQ(r), "", 0)
		if q := workload.RandomQuery(r, true); q.Fragment() != "general" {
			add(q.Pattern.String(), "", 0)
		}
		add(workload.RandomQuery(r, false).Pattern.String(), "bounded", 1+r.Intn(2))

		removal := false // the window since the last check removed edges
		check := func(when string) {
			t.Helper()
			for _, q := range qs {
				for _, op := range []string{"eval", "bool"} {
					req := q.req
					req.Op = op
					before := storeStats(q.sess).ResultCarried
					got := q.sess.Do(req)
					settled := storeStats(q.sess).ResultCarried - before
					want := q.plan.Bind(freshCopy(db)).Do(req)
					if got.Err != nil || want.Err != nil {
						t.Fatalf("seed %d %s: %s %q: %v; fresh: %v", seed, when, op, q.plan.Query().Pattern, got.Err, want.Err)
					}
					if got.OK != want.OK || op == "eval" && !got.Tuples.Equal(want.Tuples) {
						t.Fatalf("seed %d %s: %s of\n%s(%s): %d tuples, %v; a fresh evaluation: %d, %v (settled from a carried answer: %v)",
							seed, when, op, q.plan.Query().Pattern, q.req.Semantics, size(got), got.OK, size(want), want.OK, settled > 0)
					}
					if settled > 0 {
						arm := "union"
						switch {
						case op == "bool":
							arm = "verdict"
						case q.req.Semantics == "bounded":
							arm = "bounded"
						}
						if removal {
							arm += " over a removal"
						}
						carried[arm]++
					}
					if op == "bool" {
						q.sess.Do(req) // asked again: a true verdict is carried
					}
				}
			}
		}
		check("base")
		for step := 0; step < 12; step++ {
			kind := r.Intn(8)
			switch {
			case seed == 0 && step == 6:
				pastLog(t, db, qs[0].sess)
				carriedMove(t, db, r, step, 0)
				before := storeStats(qs[0].sess).ResultCarried
				check(fmt.Sprintf("step %d, past the delta log", step))
				if n := storeStats(qs[0].sess).ResultCarried - before; n != 0 {
					t.Fatalf("seed %d: %d answers settled over a window the delta log does not cover", seed, n)
				}
				continue
			case kind < 3:
				carriedMove(t, db, r, step, 0)
			case kind < 5:
				carriedMove(t, db, r, step, 1)
			case kind == 5: // a composite window: several moves nothing reads between
				for j := 0; j <= 1+r.Intn(2); j++ {
					carriedMove(t, db, r, 100*step+j, r.Intn(3)/2)
				}
			case kind == 6:
				carriedMove(t, db, r, step, 2)
				removal = true
			default:
				if r.Intn(3) == 0 {
					carriedMove(t, db, r, step, 3)
				} else {
					carriedMove(t, db, r, step, 0)
				}
			}
			check(fmt.Sprintf("step %d", step))
			removal = false
		}
	}
	t.Logf("carried answers settled, by arm: %v", carried)
	for _, arm := range []string{"union", "bounded", "verdict", "union over a removal", "bounded over a removal"} {
		if carried[arm] == 0 {
			t.Fatalf("no carried answer settled in the %s arm: %v", arm, carried)
		}
	}
	if carried["verdict over a removal"] != 0 {
		t.Fatalf("verdicts settled over a window that removed edges: %v", carried)
	}

	wide, _, _, _ := overCapQueries()
	carriedWindows(t, wide, true)
	carriedWindows(t, cxrpq.MustParse("ans(y, z)\nx y : $w{a}|$v{b}\nx z : $w|$v\n"), false) // x: a source no row names
}

// carriedWindows evaluates q on a random graph, then moves the graph by an
// insert, a removal and a mixed window, reading q's eval answer after each:
// it must equal a fresh evaluation on a fresh copy and be settled from the
// carried answer (result_carried) — over the windows that removed edges too
// when named, else dropped there (result_dropped) and evaluated afresh.
func carriedWindows(t *testing.T, q *cxrpq.Query, named bool) {
	t.Helper()
	db := workload.Random(5, 8, 20, "ab")
	p := cxrpq.MustPrepare(q)
	sess, req := p.Bind(db), cxrpq.Request{Op: "eval"}
	if r := sess.Do(req); r.Err != nil || size(r) == 0 {
		t.Fatalf("%q: %d tuples, %v: the windows would prove nothing", q.Pattern, size(r), r.Err)
	}
	edge := func(i int) graph.DeltaEdge {
		for u := i; ; u++ {
			if out := db.Out(u % db.NumNodes()); len(out) > 0 {
				return graph.DeltaEdge{From: db.Name(out[0].From), Label: out[0].Label, To: db.Name(out[0].To)}
			}
		}
	}
	for _, w := range []struct {
		name string
		d    graph.Delta
	}{
		{"insert", graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(1), Label: 'a', To: db.Name(4)}, {From: "fresh", Label: 'b', To: db.Name(2)}}}},
		{"removal", graph.Delta{Del: []graph.DeltaEdge{edge(0), edge(3)}}},
		{"mixed", graph.Delta{Add: []graph.DeltaEdge{{From: db.Name(5), Label: 'b', To: db.Name(0)}}, Del: []graph.DeltaEdge{edge(6)}}},
	} {
		if _, err := publish(sess, w.d); err != nil {
			t.Fatal(err)
		}
		before := storeStats(sess)
		got := sess.Do(req)
		after := storeStats(sess)
		want := p.Bind(freshCopy(db)).Do(req)
		if got.Err != nil || want.Err != nil || !got.Tuples.Equal(want.Tuples) {
			t.Fatalf("%q after the %s window: %d tuples (%v); a fresh evaluation: %d (%v)", q.Pattern, w.name, size(got), got.Err, size(want), want.Err)
		}
		settled, dropped := after.ResultCarried-before.ResultCarried, after.ResultDropped-before.ResultDropped
		wantSettled, wantDropped := uint64(1), uint64(0)
		if !named && w.d.Del != nil {
			wantSettled, wantDropped = 0, 1
		}
		if settled != wantSettled || dropped != wantDropped {
			t.Fatalf("%q after the %s window: %d answers settled, %d dropped; want %d and %d", q.Pattern, w.name, settled, dropped, wantSettled, wantDropped)
		}
	}
}

// pastLog moves db's store over windows of one edge each, added then
// removed, nothing reading between them, until the delta log no longer
// covers the revision the answers describe.
func pastLog(t *testing.T, db *graph.DB, sess *cxrpq.Session) {
	t.Helper()
	base := db.Revision()
	e := graph.DeltaEdge{From: db.Name(0), Label: 'a', To: db.Name(db.NumNodes() - 1)}
	for db.DeltaSince(base) != nil {
		if _, err := publish(sess, graph.Delta{Add: []graph.DeltaEdge{e}}); err != nil {
			t.Fatal(err)
		}
		if _, err := publish(sess, graph.Delta{Del: []graph.DeltaEdge{e}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCarriedAnswerHonorsBudget: settling a carried eval answer runs under
// the reader's budget. A reader whose deadline has passed gets the old rows
// and engine.ErrCanceled and files nothing — the answer stays carried — and
// the next reader settles it to what a fresh evaluation answers.
func TestCarriedAnswerHonorsBudget(t *testing.T) {
	t.Parallel()
	db := workload.Random(3, 30, 60, "ab")
	for _, c := range []struct{ text, semantics string }{
		{"ans(x, z)\nx y : a\ny z : b+", ""},
		{"ans(x, y)\nx y : $w{a|b}\ny z : $w+", "bounded"},
	} {
		p := cxrpq.MustPrepare(cxrpq.MustParse(c.text))
		sess := p.Bind(db)
		req := cxrpq.Request{Op: "eval", Semantics: c.semantics, K: 1}
		old, err := tuples(sess.Do(req))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := publish(sess, graph.Delta{Add: []graph.DeltaEdge{{From: "fresh" + c.semantics, Label: 'a', To: db.Name(0)}, {From: db.Name(1), Label: 'b', To: db.Name(2)}}}); err != nil {
			t.Fatal(err)
		}
		before := storeStats(sess)
		cut := req
		cut.Budget = engine.NewBudget(nil, time.Now().Add(-time.Second))
		got := sess.Do(cut)
		if !errors.Is(got.Err, engine.ErrCanceled) || got.Tuples == nil || got.Tuples.Len() < old.Len() {
			t.Fatalf("%q: a settle past its deadline: %v, want the old %d rows with ErrCanceled", c.text, got.Err, old.Len())
		}
		if st := storeStats(sess); st.ResultCarried != before.ResultCarried || st.Results.Entries != before.Results.Entries {
			t.Fatalf("%q: a cut settle filed an answer: %+v", c.text, st)
		}
		got = sess.Do(req)
		want := p.Bind(freshCopy(db)).Do(req)
		if got.Err != nil || !got.Tuples.Equal(want.Tuples) || storeStats(sess).ResultCarried != before.ResultCarried+1 {
			t.Fatalf("%q: the next read: %d rows (%v), fresh %d; settled from the carried answer: %v",
				c.text, got.Tuples.Len(), got.Err, want.Tuples.Len(), storeStats(sess).ResultCarried-before.ResultCarried)
		}
	}
}

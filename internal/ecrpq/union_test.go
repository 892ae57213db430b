package ecrpq_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
	"cxrpq/internal/xregex"
)

// TestEvalUnionParallel checks the union evaluation: members evaluated in
// order must dedupe into the set their own evaluations hold between them,
// also when callers on other goroutines evaluate the union over the same
// database at the same time, and the outcome of a union with failing members
// must be the one the union contract names, however long the union.
func TestEvalUnionParallel(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	u := &ecrpq.Union{Members: []*ecrpq.Query{
		mustQuery(t, "ans(x, y)\nx y : a"),
		mustQuery(t, "ans(x, y)\nx y : a|b"), // superset of member 1: forces dedup
		mustQuery(t, "ans(x, y)\nx y : b"),
	}}
	want := pattern.NewTupleSet()
	for _, m := range u.Members {
		res, err := ecrpq.Eval(m, db)
		if err != nil {
			t.Fatal(err)
		}
		want.AddAll(res)
	}
	hit, miss := u.Members[0], mustQuery(t, "ans(x, y)\nx y : c")
	invalid := &ecrpq.Query{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : $v{a}")} // fails Validate
	errA, errB := errors.New("member A"), errors.New("member B")
	cut := fmt.Errorf("member cut: %w", engine.ErrCanceled)
	// A long union whose only failures sit at its end.
	var wide []any
	for i := 0; i < 2053; i++ {
		wide = append(wide, miss)
	}
	wide = append(wide, errB, miss, errA)

	if got, err := ecrpq.EvalUnion(u, db); err != nil || !got.Equal(want) {
		t.Fatalf("EvalUnion: %d tuples, %v; sequential %d", got.Len(), err, want.Len())
	}
	if ok, err := ecrpq.EvalUnionBool(u, db); err != nil || ok != (want.Len() > 0) {
		t.Fatalf("EvalUnionBool = %v, %v; want %v", ok, err, want.Len() > 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := ecrpq.EvalUnionWith(ecrpq.MembersOf(db, u.Members...), ecrpq.Options{}); err != nil || !got.Equal(want) {
				t.Errorf("caller %d: union %d tuples, %v; sequential %d", g, got.Len(), err, want.Len())
			}
		}()
	}
	wg.Wait()
	var many []any // more members than a plan keeps translated
	for i := 0; i < 1031; i++ {
		many = append(many, u.Members[i%3])
	}
	if got, err := ecrpq.EvalUnionWith(seq(db, many...), ecrpq.Options{}); err != nil || !got.Equal(want) {
		t.Fatalf("a union of %d members has %d tuples, %v; want %d", len(many), got.Len(), err, want.Len())
	}
	for _, c := range []struct {
		name    string
		members ecrpq.Members
		ok      bool
		err     error // nil: none; errAny: whatever Validate says
	}{
		{"a match after a failed member wins", seq(db, errA, invalid, hit), true, nil},
		{"a failed member after the match is ignored", seq(db, hit, invalid, errA), true, nil},
		{"no match: the lowest-index failure", seq(db, miss, errB, errA), false, errB},
		{"a real failure outranks an earlier truncation", seq(db, cut, miss, errA, errB), false, errA},
		{"a member that does not validate is a failure", seq(db, miss, invalid), false, errAny},
		{"failures at the end of a long union keep their rank", seq(db, wide...), false, errB},
	} {
		ok, err := ecrpq.ExistsUnion(c.members, nil, ecrpq.Options{})
		if ok != c.ok || (c.err == nil) != (err == nil) || c.err != errAny && !errors.Is(err, c.err) {
			t.Errorf("Boolean, %s: got %v, %v", c.name, ok, err)
		}
	}
	// Evaluating the set, the first failure ends the run with what was found.
	res, err := ecrpq.EvalUnionWith(seq(db, hit, errA, errB), ecrpq.Options{})
	if !errors.Is(err, errA) || res == nil {
		t.Errorf("set evaluation with a failed member = %v, %v; want the partial set and member A", res, err)
	}
	// A witness spends nothing of the caller's budget, also when the union is
	// one member.
	for _, ms := range []ecrpq.Members{seq(db, hit), seq(db, hit, hit, hit)} {
		live := engine.NewBudget(nil, time.Time{})
		if ok, err := ecrpq.ExistsUnion(ms, nil, ecrpq.Options{Budget: live}); err != nil || !ok || live.Err() != nil {
			t.Errorf("Boolean match = %v, %v; the caller's budget afterwards: %v", ok, err, live.Err())
		}
	}
	// A spent budget vouches for nothing, and nothing is evaluated under it.
	spent := engine.NewBudget(nil, time.Now().Add(-time.Second))
	if res, err := ecrpq.EvalUnionWith(seq(db, hit), ecrpq.Options{Budget: spent}); !errors.Is(err, engine.ErrCanceled) || res.Len() != 0 {
		t.Errorf("set evaluation under a spent budget = %d rows, %v", res.Len(), err)
	}
	if ok, err := ecrpq.ExistsUnion(seq(db, hit), nil, ecrpq.Options{Budget: spent}); !errors.Is(err, engine.ErrCanceled) || ok {
		t.Errorf("Boolean evaluation under a spent budget = %v, %v", ok, err)
	}
}

// TestUnionExitsInOrder: members run one after the other, so a union stops
// asking its source for members at the first witness of a Boolean evaluation
// and at the first failure of a set evaluation — which keeps the rows of the
// members before it — while a Boolean evaluation searches past a member that
// could not be built.
func TestUnionExitsInOrder(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	hit, miss := mustQuery(t, "ans(x, y)\nx y : a"), mustQuery(t, "ans(x, y)\nx y : c")
	invalid := &ecrpq.Query{Pattern: pattern.MustParseQuery("ans(x, y)\nx y : $v{a}")} // fails Validate
	errA := errors.New("member A")
	hitRows, err := ecrpq.Eval(hit, db)
	if err != nil || hitRows.Len() == 0 {
		t.Fatalf("fixture: %v, %v", hitRows, err)
	}
	// counted is seq(members...) that records the highest index asked for.
	counted := func(asked *int, members ...any) ecrpq.Members {
		ms := seq(db, members...)
		return func(i int, j ecrpq.Join) (*ecrpq.Leaf, bool, error) {
			*asked = max(*asked, i)
			return ms(i, j)
		}
	}

	asked := -1
	if ok, err := ecrpq.ExistsUnion(counted(&asked, errA, hit, miss), nil, ecrpq.Options{}); !ok || err != nil {
		t.Errorf("Boolean over [a member that failed to build, a match] = %v, %v; want true, nil", ok, err)
	}
	if asked != 1 {
		t.Errorf("Boolean: the source was asked up to member %d after the witness at member 1", asked)
	}
	if ok, err := ecrpq.ExistsUnion(seq(db, invalid, hit), nil, ecrpq.Options{}); !ok || err != nil {
		t.Errorf("Boolean over [a member that does not validate, a match] = %v, %v; want true, nil", ok, err)
	}

	for _, failing := range []any{errA, invalid} {
		asked = -1
		res, err := ecrpq.EvalUnionWith(counted(&asked, hit, failing, hit, miss), ecrpq.Options{})
		if err == nil || failing == errA && !errors.Is(err, errA) {
			t.Errorf("set over [a match, %v]: error %v, want the failure", failing, err)
		}
		if res == nil || !res.Equal(hitRows) {
			t.Errorf("set over [a match, %v]: %v, want the first member's %d rows", failing, res, hitRows.Len())
		}
		if asked != 1 {
			t.Errorf("set over [a match, %v]: the source was asked up to member %d after the failure at member 1", failing, asked)
		}
	}
}

// TestUnionContract holds the member drivers to one contract, over the two
// kinds of member source the program runs: the query form — one query per
// member, as a vstar-free plan's union yields them — and the bounded run's —
// one pattern leaf whose atom is set anew for each member, as the bounded
// engine yields its mappings. A member is a label of the one edge x → y, or
// an error standing for a member the source could not build (the synthetic
// failure rows). The sources record which members the drivers ask for.
func TestUnionContract(t *testing.T) {
	db := workload.Random(11, 20, 80, "ab")
	sigma := []rune("abc")
	g := pattern.MustParseQuery("ans(x, y)\nx y : a")
	sources := map[string]func(asked *[]int, members ...any) ecrpq.Members{
		"query": func(asked *[]int, members ...any) ecrpq.Members {
			return func(i int, j ecrpq.Join) (*ecrpq.Leaf, bool, error) {
				*asked = append(*asked, i)
				if i >= len(members) {
					return nil, false, nil
				}
				if err, ok := members[i].(error); ok {
					return nil, true, err
				}
				q := mustQuery(t, "ans(x, y)\nx y : "+members[i].(string))
				return ecrpq.MembersOf(db, q)(0, j)
			}
		},
		"bounded": func(asked *[]int, members ...any) ecrpq.Members {
			var leaf *ecrpq.Leaf
			return func(i int, j ecrpq.Join) (*ecrpq.Leaf, bool, error) {
				*asked = append(*asked, i)
				if i >= len(members) {
					return nil, false, nil
				}
				if err, ok := members[i].(error); ok {
					return nil, true, err
				}
				if leaf == nil {
					leaf = ecrpq.NewLeaf(ecrpq.Atoms(db), g, j)
				}
				a, err := ecrpq.Atoms(db).Atom(xregex.MustParse(members[i].(string)), sigma)
				if err == nil {
					_, err = leaf.Set(0, a)
				}
				return leaf, true, err
			}
		},
	}
	rows := func(label string) *pattern.TupleSet {
		res, err := ecrpq.Eval(mustQuery(t, "ans(x, y)\nx y : "+label), db)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := rows("a"), rows("b")
	ab := pattern.NewTupleSet()
	ab.AddAll(a)
	ab.AddAll(b)
	if a.Len() == 0 || b.Len() == 0 || rows("c").Len() != 0 {
		t.Fatal("fixture: want rows over a and over b, none over c")
	}
	tuple := a.Sorted()[0]
	every := make([]int, db.NumNodes())
	for u := range every {
		every[u] = u
	}
	pre, _, err := ecrpq.PreBind(g.Out, db, tuple)
	if err != nil {
		t.Fatal(err)
	}
	errA, errB := errors.New("member A"), errors.New("member B")
	cut := fmt.Errorf("member cut: %w", engine.ErrCanceled)
	spent := engine.NewBudget(nil, time.Now().Add(-time.Second))
	sorted := func(s *pattern.TupleSet) []pattern.Tuple {
		if s == nil {
			return nil
		}
		return s.Sorted()
	}
	type outcome struct {
		rows *pattern.TupleSet // set, seeded set, stream, ranked roots: the rows returned; nil otherwise
		ok   bool              // exists: the verdict; witness: whether there is one
		i    int               // witness: the index of the matching member
		err  error
	}
	set := func(o ecrpq.Options) func([]any, ecrpq.Members) outcome {
		return func(_ []any, ms ecrpq.Members) outcome {
			res, err := ecrpq.EvalUnionWith(ms, o)
			return outcome{rows: res, err: err}
		}
	}
	seeded := func(o ecrpq.Options) func([]any, ecrpq.Members) outcome {
		return func(_ []any, ms ecrpq.Members) outcome {
			res, _, err := ecrpq.SettleUnion(ms, pattern.NewTupleSet(), every, false, o)
			return outcome{rows: res, err: err}
		}
	}
	// The stream and the ranked roots leave the budget to their caller, which
	// reads it for truncation.
	stream := func(o ecrpq.Options) func([]any, ecrpq.Members) outcome {
		return func(_ []any, ms ecrpq.Members) outcome {
			res := pattern.NewTupleSet()
			err := streamUnion(ms, o, func(row []int32, _ int) bool { res.AddRow(row); return true })
			if err == nil {
				err = o.Budget.Err()
			}
			return outcome{rows: res, err: err}
		}
	}
	roots := func(o ecrpq.Options) func([]any, ecrpq.Members) outcome {
		return func(_ []any, ms ecrpq.Members) outcome {
			ak, res := ecrpq.NewAnyK(o), pattern.NewTupleSet()
			err := ak.AddUnion(ms, nil)
			for row, _, ok := ak.Next(); ok; row, _, ok = ak.Next() {
				res.AddRow(row)
			}
			if err == nil {
				err = o.Budget.Err()
			}
			return outcome{rows: res, err: err}
		}
	}
	exists := func(pre map[string]int, o ecrpq.Options) func([]any, ecrpq.Members) outcome {
		return func(_ []any, ms ecrpq.Members) outcome {
			ok, err := ecrpq.ExistsUnion(ms, pre, o)
			return outcome{ok: ok, err: err}
		}
	}
	// witness also holds the witness to the member it names: the pre-bound
	// tuple, and the one-letter word of its label.
	witness := func(pre map[string]int, o ecrpq.Options) func([]any, ecrpq.Members) outcome {
		return func(members []any, ms ecrpq.Members) outcome {
			i, w, err := ecrpq.WitnessUnion(ms, pre, o)
			if w == nil {
				return outcome{err: err}
			}
			if err != nil || i < 0 || i >= len(members) || w.Words[0] != members[i] || pre != nil && (w.NodeOf["x"] != pre["x"] || w.NodeOf["y"] != pre["y"]) {
				t.Errorf("the witness of member %d of %v under %v is %+v, %v", i, members, pre, w, err)
			}
			return outcome{ok: true, i: i, err: err}
		}
	}
	for _, c := range []struct {
		name    string
		run     func([]any, ecrpq.Members) outcome
		members []any
		want    outcome
		asked   []int
	}{
		{"set: members run in order, each once", set(ecrpq.Options{}), []any{"a", "c", "b"}, outcome{rows: ab}, []int{0, 1, 2, 3}},
		{"bool: exits at the first witness", exists(nil, ecrpq.Options{}), []any{"c", "a", "b", "c"}, outcome{ok: true}, []int{0, 1}},
		{"check: exits at the first witness", exists(pre, ecrpq.Options{}), []any{"c", "a", "a", errA}, outcome{ok: true}, []int{0, 1}},
		{"check: no witness asks every member", exists(pre, ecrpq.Options{}), []any{"c", "b"}, outcome{}, []int{0, 1, 2}},
		{"set: a failed member ends the run with the rows so far", set(ecrpq.Options{}), []any{"a", errA, "b"}, outcome{rows: a, err: errA}, []int{0, 1}},
		{"bool: a real failure outranks a truncation", exists(nil, ecrpq.Options{}), []any{cut, "c", errA, errB}, outcome{err: errA}, []int{0, 1, 2, 3, 4}},
		{"check: a real failure outranks a truncation", exists(pre, ecrpq.Options{}), []any{cut, errA, "c"}, outcome{err: errA}, []int{0, 1, 2, 3}},
		{"set: a spent budget starts no member", set(ecrpq.Options{Budget: spent}), []any{"a"}, outcome{rows: pattern.NewTupleSet(), err: engine.ErrCanceled}, nil},
		{"bool: a spent budget starts no member", exists(nil, ecrpq.Options{Budget: spent}), []any{"a"}, outcome{err: engine.ErrCanceled}, nil},
		{"check: a spent budget starts no member", exists(pre, ecrpq.Options{Budget: spent}), []any{"a"}, outcome{err: engine.ErrCanceled}, nil},
		{"seeded set: members run in order, each once", seeded(ecrpq.Options{}), []any{"a", "c", "b"}, outcome{rows: ab}, []int{0, 1, 2, 3}},
		{"seeded set: a spent budget starts no member", seeded(ecrpq.Options{Budget: spent}), []any{"a"}, outcome{rows: pattern.NewTupleSet(), err: engine.ErrCanceled}, nil},
		{"stream: members run in order, each once", stream(ecrpq.Options{}), []any{"a", "c", "b"}, outcome{rows: ab}, []int{0, 1, 2, 3}},
		{"stream: a spent budget starts no member", stream(ecrpq.Options{Budget: spent}), []any{"a", "b", "c"}, outcome{rows: pattern.NewTupleSet(), err: engine.ErrCanceled}, nil},
		{"ranked roots: one per member, in order", roots(ecrpq.Options{}), []any{"a", "c", "b"}, outcome{rows: ab}, []int{0, 1, 2, 3}},
		{"ranked roots: a spent budget starts no member", roots(ecrpq.Options{Budget: spent}), []any{"a", "b", "c"}, outcome{rows: pattern.NewTupleSet(), err: engine.ErrCanceled}, nil},
		{"witness: members run in order, the index is the matching member's", witness(nil, ecrpq.Options{}), []any{"c", "c", "b"}, outcome{ok: true, i: 2}, []int{0, 1, 2}},
		{"witness: exits at the first witness", witness(nil, ecrpq.Options{}), []any{"c", "a", "b", errA}, outcome{ok: true, i: 1}, []int{0, 1}},
		{"witness of a tuple: exits at the first witness", witness(pre, ecrpq.Options{}), []any{"c", errA, "a", "a"}, outcome{ok: true, i: 2}, []int{0, 1, 2}},
		{"witness: a real failure outranks a truncation", witness(nil, ecrpq.Options{}), []any{cut, "c", errA, errB}, outcome{err: errA}, []int{0, 1, 2, 3, 4}},
		{"witness: a spent budget starts no member", witness(nil, ecrpq.Options{Budget: spent}), []any{"a"}, outcome{err: engine.ErrCanceled}, nil},
	} {
		for name, source := range sources {
			var asked []int
			got := c.run(c.members, source(&asked, c.members...))
			if got.ok != c.want.ok || got.i != c.want.i || (got.err == nil) != (c.want.err == nil) || c.want.err != nil && !errors.Is(got.err, c.want.err) {
				t.Errorf("%s, %s source: %v, %v; want %v, %v", c.name, name, got.ok, got.err, c.want.ok, c.want.err)
			}
			if (got.rows == nil) != (c.want.rows == nil) || c.want.rows != nil && !got.rows.Equal(c.want.rows) {
				t.Errorf("%s, %s source: rows %v, want %v", c.name, name, sorted(got.rows), sorted(c.want.rows))
			}
			if !slices.Equal(asked, c.asked) {
				t.Errorf("%s, %s source: asked for members %v, want %v", c.name, name, asked, c.asked)
			}
		}
	}
}

var errAny = errors.New("any error")

// seq is a member source over queries on db and the errors standing in for
// members that could not be built.
func seq(db *graph.DB, members ...any) ecrpq.Members {
	return ecrpq.QueryMembers(db, func(i int) (*ecrpq.Query, bool, error) {
		if i >= len(members) {
			return nil, false, nil
		}
		q, _ := members[i].(*ecrpq.Query)
		err, _ := members[i].(error)
		return q, true, err
	})
}

// streamUnion pulls every row of the union stream of ms into yield until it
// returns false, and reports the stream's error.
func streamUnion(ms ecrpq.Members, o ecrpq.Options, yield ecrpq.StreamFunc) error {
	u := ecrpq.NewUnionRows(ms, o)
	for row, cost, ok := u.Next(); ok && yield(row, cost); row, cost, ok = u.Next() {
	}
	return u.Err()
}

// TestSettleUnionSourceColumns: the settle driver keeps a union's old rows
// over a window that removed edges only when every member names its sources
// at the same columns. A union whose members agree, one of them through a
// source its pattern reaches from an output variable, settles to what a
// fresh evaluation answers. One whose members disagree — x is the source of
// one, y of the other — or whose rows name no source is refused (ok false)
// over a removal and settled over an insert.
func TestSettleUnionSourceColumns(t *testing.T) {
	for _, c := range []struct {
		name  string
		named bool
		qs    []*ecrpq.Query
	}{
		{"agree", true, []*ecrpq.Query{mustQuery(t, "ans(x, y)\nx y : a"), mustQuery(t, "ans(x, y)\nx z : b\nz y : a")}},
		{"disagree", false, []*ecrpq.Query{mustQuery(t, "ans(x, y)\nx y : a"), mustQuery(t, "ans(x, y)\ny x : b")}},
		{"unnamed", false, []*ecrpq.Query{mustQuery(t, "ans(y)\nx y : a"), mustQuery(t, "ans(y)\nx y : b")}},
	} {
		for _, removal := range []bool{false, true} {
			db := workload.Random(7, 10, 30, "ab")
			old, err := ecrpq.EvalUnionWith(ecrpq.MembersOf(db, c.qs...), ecrpq.Options{})
			if err != nil || old.Len() == 0 {
				t.Fatalf("%s: %d rows, %v: the window would prove nothing", c.name, old.Len(), err)
			}
			type key struct{}
			ecrpq.Atoms(db).FileAnswer(key{}, old, 0, ecrpq.CarryAlways)
			var d graph.Delta
			if removal {
				for u := 0; len(d.Del) < 3; u++ {
					for _, e := range db.Out(u) {
						d.Del = append(d.Del, graph.DeltaEdge{From: db.Name(e.From), Label: e.Label, To: db.Name(e.To)})
						break
					}
				}
			} else {
				d.Add = []graph.DeltaEdge{{From: db.Name(1), Label: 'a', To: db.Name(2)}, {From: "fresh", Label: 'b', To: db.Name(3)}}
			}
			if _, err := db.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			_, frontier, removed, ok := ecrpq.Atoms(db).Carried(key{})
			if !ok || removed != removal {
				t.Fatalf("%s: carried %v, removed %v", c.name, ok, removed)
			}
			got, ok, err := ecrpq.SettleUnion(ecrpq.MembersOf(db, c.qs...), old, frontier, removed, ecrpq.Options{})
			if want := c.named || !removal; ok != want || err != nil {
				t.Fatalf("%s, removal %v: settled %v (%v), want %v", c.name, removal, ok, err, want)
			}
			if !ok {
				continue
			}
			if want, err := ecrpq.EvalUnionWith(ecrpq.MembersOf(db, c.qs...), ecrpq.Options{}); err != nil || !got.Equal(want) {
				t.Fatalf("%s, removal %v: settled to %v; a fresh evaluation has %v (%v)", c.name, removal, got.Sorted(), want.Sorted(), err)
			}
		}
	}
}

package ecrpq

import (
	"errors"
	"slices"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// This file holds the program's member loops: one driver per operation — set,
// settle, exists (Bool-Eval and Check), witness (explain), stream, any-k
// roots — over a member source, which yields each member compiled as a Leaf
// for the driver's join. Both of the paper's unions run through them: the
// ∪-ECRPQ a vstar-free CXRPQ is (§7; Lemma 7 / Lemma 13), one query-form leaf
// per member, decoded when the driver asks for it, and the union of CRPQs a
// CXRPQ^≤k is (Lemma 12, Theorem 6), the bounded run's one pattern-form leaf
// per mapping. Members run one after the other on the caller's goroutine, in
// order: the set and settle drivers append every member's rows to one bag
// and settle it once (eachMember), and exists and witness share one
// first-match loop (firstMatch) that returns at the first match — Check is
// Bool-Eval with the output variables pre-bound, and a witness is read off
// the leaf that matched (§8). The settle driver also owns the removal-window
// argument of delta.go: which old rows a window that removed edges may have
// broken, read off each member leaf's source columns. A single query is the
// union of one member and costs what that member costs. No driver starts a
// member under a spent budget.

// Members is the member source of a union: member i compiled for j, for i
// from 0 until ok is false, or the error that kept the layer above from
// building it. A driver asks for the members in order, once each, on the
// caller's goroutine, and every one for the same join; a source is built for
// one request.
type Members func(i int, j Join) (l *Leaf, ok bool, err error)

// QueryMembers is the member source of the queries qs yields — query i, for
// i from 0 until ok is false, or the error that kept the layer above from
// building it — each compiled over db.
func QueryMembers(db *graph.DB, qs func(i int) (q *Query, ok bool, err error)) Members {
	return func(i int, j Join) (*Leaf, bool, error) {
		q, ok, err := qs(i)
		if !ok || err != nil {
			return nil, ok, err
		}
		l, err := queryLeaf(q, db, j)
		return l, true, err
	}
}

// MembersOf is the member source of the given queries over db.
func MembersOf(db *graph.DB, qs ...*Query) Members {
	return QueryMembers(db, func(i int) (*Query, bool, error) {
		if i >= len(qs) {
			return nil, false, nil
		}
		return qs[i], true, nil
	})
}

// EvalUnionWith computes ⋃ qi(D) over the members of ms, each by the
// materializing join, appending every member's rows to one bag it settles
// once. On a failure or a cancellation it returns the sound partial set
// found so far with the error.
func EvalUnionWith(ms Members, o Options) (*pattern.TupleSet, error) {
	out := pattern.NewTupleSet()
	var s search
	_, err := eachMember(ms, Join{Options: o}, func(_ int, l *Leaf) bool {
		l.join(&s)
		s.drain(appendTo(out))
		return true
	})
	out.Settle()
	return out, err
}

// SettleUnion brings old, the rows of ⋃ qi before a window with the given
// frontier, up to the graph ms is compiled over: each member joined by the
// lazy search once per source variable, pre-bound to each frontier node in
// turn, finds every row the window added (see delta.go). Over a window that
// removed edges the old rows with a frontier node at the members' source
// columns (Leaf.cols) go first, and the seeded joins find those that still
// hold; ok is false, and old of no use, when a member has no source columns
// or not those of the others. A failure or a cut returns the rows found so
// far with the error, with old only when the window removed nothing.
func SettleUnion(ms Members, old *pattern.TupleSet, frontier []int, removed bool, o Options) (rows *pattern.TupleSet, ok bool, err error) {
	if len(frontier) == 0 {
		return old, true, nil
	}
	found, cols, ok := pattern.NewTupleSet(), []int(nil), true
	all, err := eachMember(ms, Join{Options: o, Seeded: true, Lazy: true}, func(i int, l *Leaf) bool {
		if removed {
			if ok = l.cols != nil && (i == 0 || slices.Equal(l.cols, cols)); !ok {
				return false
			}
			cols = l.cols
		}
		l.streamSeeded(frontier, appendTo(found))
		return true
	})
	if !ok {
		return nil, false, nil
	}
	found.Settle()
	var drop func([]int32) bool
	switch {
	case !removed:
	case !all || cols == nil: // cut before every member vouched for its columns, or no member left
		drop = func([]int32) bool { return true }
	default:
		drop = func(row []int32) bool {
			return slices.ContainsFunc(cols, func(c int) bool {
				_, in := slices.BinarySearch(frontier, int(row[c]))
				return in
			})
		}
	}
	return pattern.Merge(old, found, drop), true, err
}

// eachMember hands each member of ms, compiled for j, to run in order until
// run reports false, reporting whether every member ran. The first member
// that fails or is cut ends the loop with its error; a spent budget starts
// no member.
func eachMember(ms Members, j Join, run func(i int, l *Leaf) bool) (bool, error) {
	for i := 0; !j.Budget.Canceled(); i++ {
		l, more, err := ms(i, j)
		if !more {
			return true, nil
		}
		if err != nil || !run(i, l) {
			return false, err
		}
	}
	return false, j.Budget.Err()
}

// appendTo is the StreamFunc that appends every row to out.
func appendTo(out *pattern.TupleSet) StreamFunc {
	return func(row []int32, _ int) bool {
		out.Append(row)
		return true
	}
}

// ExistsUnion decides whether some member of ms has a match with the
// variables of pre bound: Bool-Eval with pre nil, Check with the output
// variables bound to the tuple (PreBind). It is the first-match loop
// (firstMatch) asked for a verdict only.
func ExistsUnion(ms Members, pre map[string]int, o Options) (bool, error) {
	var s search
	_, l, err := firstMatch(ms, Join{Options: o, Pre: pre, Lazy: true}, &s)
	return l != nil, err
}

// WitnessUnion finds the first match of a member of ms with the variables of
// pre bound, as ExistsUnion decides one, and returns the member's index and
// its witness (Leaf.witness): the join binds every variable, and the words
// are read off the leaf it matched on. A budget that cuts the reading of the
// words returns engine.ErrCanceled and a nil witness.
func WitnessUnion(ms Members, pre map[string]int, o Options) (int, *Witness, error) {
	var s search
	i, l, err := firstMatch(ms, Join{Options: o, Pre: pre, Lazy: true, BindAll: true}, &s)
	if l == nil {
		return -1, nil, err
	}
	w, err := l.witness(&s)
	return i, w, err
}

// firstMatch is the first-match loop of Bool-Eval, Check and explain: each
// member of ms, in order, runs the lazy search of j into s, and the loop
// returns at the first match the member's index and its leaf, with s standing
// on the match. A match beats any error. Without one, a real failure outranks
// a truncation, and within a class the lowest member index wins; a spent
// budget starts no member and vouches for nothing.
func firstMatch(ms Members, j Join, s *search) (int, *Leaf, error) {
	var failed error
	for i := 0; !j.Budget.Canceled(); i++ {
		l, more, err := ms(i, j)
		if !more {
			break
		}
		if err == nil {
			l.join(s)
			if _, _, ok := s.next(); ok {
				return i, l, nil
			}
		} else if failed == nil || errors.Is(failed, engine.ErrCanceled) && !errors.Is(err, engine.ErrCanceled) {
			failed = err
		}
	}
	if failed == nil {
		failed = j.Budget.Err()
	}
	return -1, nil, failed
}

// EvalUnion computes ⋃ qi(D).
func EvalUnion(u *Union, db *graph.DB) (*pattern.TupleSet, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return EvalUnionWith(MembersOf(db, u.Members...), Options{})
}

// EvalUnionBool decides whether some member matches.
func EvalUnionBool(u *Union, db *graph.DB) (bool, error) {
	if err := u.Validate(); err != nil {
		return false, err
	}
	return ExistsUnion(MembersOf(db, u.Members...), nil, Options{})
}

// UnionRows is the stream of ⋃ qi(D): the members' lazy searches pulled one
// after the other on the caller's goroutine, a row returned the moment the
// join completes it. Unranked, rows are distinct across the union and cost is
// always 0. Ranked rows are NOT deduplicated — the same tuple may arrive once
// per distinct assignment, each with that assignment's cost — because only a
// full drain can know the minimal witness; the consumer keeps the minimum per
// tuple. The caller owns the budget and checks it for truncation.
type UnionRows struct {
	ms   Members
	j    Join
	next int  // the member searched after s
	live bool // s is a member's search
	s    search
	seen *pattern.TupleSet // of the whole union; nil when ranked
	err  error
}

// NewUnionRows returns the stream of the members of ms under o; nothing runs
// before the first Next.
func NewUnionRows(ms Members, o Options) *UnionRows {
	u := &UnionRows{ms: ms, j: Join{Options: o, Lazy: true}}
	if !o.Ranked {
		u.seen = pattern.NewTupleSet()
	}
	return u
}

// Next returns the next row with its witness cost, in a row the stream
// reuses; ok is false once the union is exhausted, the budget canceled or a
// member could not be built (Err).
func (u *UnionRows) Next() (row []int32, cost int, ok bool) {
	for u.err == nil && u.next >= 0 {
		if u.live {
			if row, cost, ok = u.s.next(); ok {
				if u.seen != nil && !u.seen.AddRow(row) {
					continue
				}
				return row, cost, true
			}
			u.live = false
		}
		if u.j.Budget.Canceled() {
			break
		}
		l, more, err := u.ms(u.next, u.j)
		if u.next++; !more {
			break
		}
		if err == nil {
			l.join(&u.s)
			u.live = true
		}
		u.err = err
	}
	u.next = -1
	return nil, 0, false
}

// Err reports the first member that could not be built.
func (u *UnionRows) Err() error { return u.err }

// AddUnion adds one root per member of ms, ranked under the enumerator's
// budget with an optional pluggable edge weight: each member's join as it
// stands when the source yields it, which the source may go on to change. A
// spent budget starts no member: the roots added so far stay, and Next reads
// the budget.
func (a *AnyK) AddUnion(ms Members, weight engine.Weight) error {
	j := Join{Options: Options{Budget: a.bud, Ranked: true, Weight: weight}, Lazy: true}
	for i := 0; !a.bud.Canceled(); i++ {
		l, ok, err := ms(i, j)
		if !ok {
			return nil
		}
		if err != nil {
			return err
		}
		a.addRoot(l.plan(0).clone())
	}
	return nil
}

package ecrpq

import (
	"slices"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
)

// This file is the atom store's half of the incremental-update subsystem: it
// carries every fact across a revision move instead of dropping it, one entry
// at a time on first use. A move copies entry headers only (carry); the first
// lookup of an entry at the new revision brings it up to date over the net
// delta since the revision its facts describe (settle), which may span
// several moves when the entry went unread.
//
// Why a frontier bounds the work: a pair (u, v) of an atom's relation can
// change only if some path from u used a removed edge in the old graph D or
// uses an added edge in the new graph D′. Either path reaches the tail of
// that edge, so u reaches one of the window's edge tails in D′ plus the
// removed edges (the removed ones leave D′, the prefix before the first one
// does not). buildFrontier collects those sources over any label, with the
// nodes the window interned; every other source keeps its row, its levels
// and its support bit. Per entry:
//
//   - retain: the window's labels miss the atom's alphabet (touchedBy). No
//     matching path uses a changed edge; the facts only grow to the new node
//     count, with identity rows when ε ∈ L.
//   - extend: the frontier's forward rows (relation and row table) are
//     searched again; a source-support bit is settled by a first-hit search
//     where no row was searched. The targets and backward rows change only at
//     targets of the frontier's new rows — and of its old rows when the window
//     removed edges, so without those old rows they are dropped — and a
//     backward row is the old one with the frontier's sources replaced by the
//     ones whose new rows hold it. A positive verdict survives inserts; any
//     other verdict of a touched entry becomes unknown.
//
// A window the log no longer covers, or one that brings a new label, empties
// the entry. Settling searches under the budget of the lookup that asked, and
// one it cuts installs nothing: the entry stays stale for the next reader.
//
// Answers filed to be carried (Carry) go along stale too, and the same
// frontier bounds what settles them: a row of q(D′) \ q(D) has a witness that
// uses an added edge, or a new node, in the path of some atom — a group
// component's included — and that path's start, the node bound to the atom's
// source variable, reaches the edge's tail in D′, so it is in the frontier.
// The layer that filed the answer joins once per source variable with the
// variable pre-bound to each frontier node and merges the rows into the old
// answer. A window that removed edges breaks a witness only where it binds
// some atom's source to a frontier node, by the argument for relations
// above: a path from any other node keeps every edge. So when every source
// variable is an output variable, an old row with no frontier node at a
// source's position still holds, and one with such a node is in the new
// answer exactly when the seeded joins find it: the layer drops those rows
// before it merges. Otherwise the rows do not say which witnesses broke, and
// AtomStore.Carried drops the answer, as it drops every verdict over a
// removal; a window that brings a new label leaves a fresh store.

// window is what changed between the revision a stale entry describes and
// the store's: nil info when the entry cannot be carried over it.
type window struct {
	info     *graph.DeltaInfo
	frontier *deltaFrontier // nil when info is nil or empty
	bytes    int64          // what the store accounts it at while it is filed
}

// window returns the window since rev, computed outside s.mu once per store
// and base revision: filed, and charged to the store, until the last stale
// entry of rev settles (unstale).
func (s *AtomStore) window(rev uint64) *window {
	s.mu.Lock()
	w := s.wins[rev]
	s.mu.Unlock()
	if w != nil {
		return w
	}
	w = &window{}
	if info := s.db.DeltaSince(rev); info != nil && len(info.NewLabels) == 0 {
		if w.info = info; !info.Empty() {
			w.frontier = buildFrontier(s.db, info)
		}
		w.bytes = 96 + 24*int64(len(info.Added)+len(info.Removed))
		if f := w.frontier; f != nil {
			w.bytes += 8 * int64(len(f.bits)+len(f.list))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if have := s.wins[rev]; have != nil {
		return have
	}
	if s.stale[rev] == 0 {
		return w // an eviction dropped the stale entries of rev meanwhile
	}
	if s.wins == nil {
		s.wins = map[uint64]*window{}
	}
	s.wins[rev] = w
	s.bytes += w.bytes
	return w
}

// deltaFrontier is the set of sources whose rows a window can change: every
// node that reaches the tail of an added or removed edge in the new graph
// plus the removed edges (over any label — a sound over-approximation of the
// per-atom alphabets), and every newly interned node. list is ascending.
type deltaFrontier struct {
	bits []uint64
	list []int
}

func (f *deltaFrontier) has(u int) bool { return bitHas(f.bits, u) }

func buildFrontier(db *graph.DB, info *graph.DeltaInfo) *deltaFrontier {
	n := db.NumNodes()
	f := &deltaFrontier{bits: make([]uint64, (n+63)/64)}
	var queue []int
	push := func(u int, expand bool) {
		if !f.has(u) {
			bitSet(f.bits, u)
			f.list = append(f.list, u)
			if expand {
				queue = append(queue, u)
			}
		}
	}
	for u := info.FirstNewNode(); u < n; u++ {
		push(u, false) // whatever reaches one reaches an added edge's tail first
	}
	removedInto := map[int][]int{}
	for _, e := range info.Removed {
		removedInto[e.To] = append(removedInto[e.To], e.From)
		push(e.From, true)
	}
	for _, e := range info.Added {
		push(e.From, true)
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range db.In(u) {
			push(e.From, true)
		}
		for _, from := range removedInto[u] {
			push(from, true)
		}
	}
	slices.Sort(f.list)
	return f
}

// carry returns a table at revision rev holding every entry of s, stale: a
// header copy each, sharing the relation, supports, diagonals and complete
// row tables as they are. A row table still being filled is written in place
// by s, so the copy gets its own span and an arena capped at its length. The
// answers filed to be carried (Carry) go along stale too, as they are.
func (s *AtomStore) carry(rev uint64) *atomFacts {
	s.mu.Lock()
	defer s.mu.Unlock()
	nf := newFacts(s.ctr, rev)
	nf.budget, nf.stale = s.budget, map[uint64]int{}
	for key, e := range s.m {
		ne := *e
		ne.settling = nil
		for d := range ne.rows {
			if t := &ne.rows[d]; t.span != nil && !t.complete() {
				*t = t.clone(len(t.span))
			}
		}
		nf.m[key] = &ne
		nf.stale[ne.rev]++
		nf.bytes += ne.size()
	}
	for key, a := range s.ans {
		if a.carry == CarryAlways || a.carry == CarryReused && a.reused {
			if nf.ans == nil {
				nf.ans = map[any]answer{}
			}
			a.reused = false
			nf.ans[key] = a
			nf.stale[a.rev]++
			nf.bytes += a.bytes
		}
	}
	if nf.bytes > nf.budget {
		nf.m, nf.ans, nf.stale, nf.bytes = map[string]*atomEntry{}, nil, nil, 0
		nf.ctr.evictions.Add(1)
	}
	return nf
}

// fate is what settling did to an entry, for the lineage's counters.
type fate uint8

const (
	kept     fate = iota // the window changed nothing, or the entry was emptied
	retained             // the window's labels miss the atom's: grown only
	extended             // the frontier's facts derived again
)

// settle returns e's facts brought up to the store's graph over w, the window
// since e.rev, as a new entry, its searches run under bud: one bud cuts
// returns engine.ErrCanceled and no entry. It runs outside s.mu and writes
// nothing e reaches: every changed slice is a new one, and an arena it
// appends to is capped first.
func (s *AtomStore) settle(e *atomEntry, w *window, bud *engine.Budget) (*atomEntry, fate, error) {
	info := w.info
	if info == nil {
		return &atomEntry{atom: e.atom, rev: s.atomFacts.rev}, kept, nil
	}
	ne := *e
	ne.rev, ne.settling = s.atomFacts.rev, nil
	if info.Empty() {
		return &ne, kept, nil
	}
	n0, n := info.FirstNewNode(), info.Nodes
	eps := e.atom.cache.Final(e.atom.cache.Start())
	if !e.touchedBy(info.Labels) {
		ne.grow(n0, n, eps)
		return &ne, retained, nil
	}
	if !ne.extend(s.db, e, w, engine.ReachOpts{Budget: bud, Count: &s.ctr.kernel}) {
		return nil, kept, engine.ErrCanceled
	}
	return &ne, extended, nil
}

// grow widens the facts of an entry no changed edge can touch from n0 to n
// nodes: a new node's row is empty, or itself when ε ∈ L.
func (e *atomEntry) grow(n0, n int, eps bool) {
	if n == n0 {
		return
	}
	if e.rel != nil {
		e.rel = growRelation(e.rel, n, eps)
	}
	e.diag = [2]*EdgeRel{}
	for d := range e.sup {
		if e.sup[d] != nil {
			e.sup[d] = widenBits(e.sup[d], n)
			for u := n0; u < n && eps; u++ {
				bitSet(e.sup[d], u)
			}
		}
		if t := &e.rows[d]; t.span != nil {
			complete := t.complete()
			*t = t.clone(n)
			for u := n0; u < n && complete; u++ {
				if eps {
					t.file(u, []int{u})
				} else {
					t.file(u, nil)
				}
			}
		}
	}
}

// extend derives again, over the graph db, the facts of e that the window w
// can change — those of its frontier's sources and of their rows' targets —
// and carries the rest (see the file comment), searching under o's budget and
// counters. e is the stale entry the receiver was copied from, only read. It
// reports false, the receiver half done, when the budget cut a search.
func (ne *atomEntry) extend(db *graph.DB, e *atomEntry, w *window, o engine.ReachOpts) bool {
	info, front := w.info, w.frontier.list
	n0, n := info.FirstNewNode(), info.Nodes
	removals := len(info.Removed) > 0
	fwd, bwd := &e.rows[0], &e.rows[1]
	ix, a := db.Index(), e.atom

	// The frontier's new rows: all of them when a relation, a complete table
	// or anything on the target side needs them, else the filed ones.
	srch := front
	if e.rel == nil && !fwd.complete() && e.sup[1] == nil && bwd.span == nil {
		srch = nil
		for _, u := range front {
			if _, ok := fwd.get(u); ok {
				srch = append(srch, u)
			}
		}
	}
	lo, firstHit := o, o
	lo.Levels, firstHit.First = e.rel != nil && e.rel.lev != nil, true
	res := reach(ix, a.cache, srch, true, lo)
	if res.Truncated {
		return false
	}
	rowOf := make(map[int][]int, len(srch))
	for i, u := range srch {
		rowOf[u] = res.Hits[i]
	}

	if e.rel != nil {
		ne.rel = extendRelation(e.rel, n, srch, res)
	}
	if fwd.span != nil {
		t := fwd.clone(n)
		for _, u := range srch {
			if _, ok := fwd.get(u); ok || fwd.complete() {
				t.file(u, rowOf[u])
			}
		}
		ne.rows[0] = t.compacted()
	}
	if e.sup[0] != nil {
		sup := widenBits(e.sup[0], n)
		var unsearched []int // frontier sources whose rows were not searched
		for _, u := range front {
			if row, ok := rowOf[u]; ok {
				setBit(sup, u, len(row) > 0)
			} else {
				unsearched = append(unsearched, u)
			}
		}
		hit := reach(ix, a.cache, unsearched, true, firstHit)
		if hit.Truncated {
			return false
		}
		for i, u := range unsearched {
			setBit(sup, u, len(hit.Hits[i]) > 0)
		}
		ne.sup[0] = sup
	}

	// The target side. inv holds, per target of a new frontier row, the
	// frontier's sources reaching it, ascending; lost the targets of the old
	// rows a removal may have cut.
	if e.sup[1] != nil || bwd.span != nil {
		inv := map[int][]int{}
		for _, u := range front {
			for _, v := range rowOf[u] {
				inv[v] = append(inv[v], u)
			}
		}
		var lost []int
		known := true
		for _, u := range front {
			if !removals || u >= n0 {
				continue
			}
			var row []int
			if e.rel != nil {
				row = e.rel.Forward(u)
			} else if row, known = fwd.get(u); !known {
				break
			}
			for _, v := range row {
				if _, ok := inv[v]; !ok {
					lost = append(lost, v)
				}
			}
		}
		slices.Sort(lost)
		lost = slices.Compact(lost)
		ne.sup[1], ne.rows[1] = nil, rowTable{}
		if known && e.sup[1] != nil {
			sup := widenBits(e.sup[1], n)
			for v := range inv {
				bitSet(sup, v)
			}
			var check []int // lost targets the old support holds: any source left?
			for _, v := range lost {
				if bitHas(sup, v) {
					check = append(check, v)
				}
			}
			hit := reach(ix, a.reverse(), check, false, firstHit)
			if hit.Truncated {
				return false
			}
			for i, v := range check {
				setBit(sup, v, len(hit.Hits[i]) > 0)
			}
			ne.sup[1] = sup
		}
		if known && bwd.span != nil {
			t := bwd.clone(n)
			refile := func(v int) {
				old, ok := bwd.get(v)
				if !ok && !(v >= n0 && bwd.complete()) {
					return
				}
				row := append(slices.DeleteFunc(slices.Clone(old), w.frontier.has), inv[v]...)
				slices.Sort(row)
				if !ok || !slices.Equal(row, old) {
					t.file(v, row)
				}
			}
			for v := range inv {
				refile(v)
			}
			for _, v := range lost {
				refile(v)
			}
			if bwd.complete() {
				for v := n0; v < n; v++ {
					if _, ok := inv[v]; !ok {
						t.file(v, nil)
					}
				}
			}
			ne.rows[1] = t.compacted()
		}
	}

	ne.diag = [2]*EdgeRel{}
	for d := range ne.rows {
		if t := &ne.rows[d]; t.complete() && ne.sup[d] == nil {
			ne.sup[d] = t.support()
		}
	}
	if removals || e.exists < 0 {
		ne.exists = 0
	}
	return true
}

// reach is engine.ReachBatchEx, with no call for no sources.
func reach(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, o engine.ReachOpts) engine.BatchResult {
	if len(srcs) == 0 {
		return engine.BatchResult{}
	}
	return engine.ReachBatchEx(ix, c, srcs, forward, o)
}

// clone returns a copy of t over n nodes, the new ones unfiled, that t's
// holders never see written: its own span, and the arena capped so that
// filing a row reallocates it.
func (t *rowTable) clone(n int) rowTable {
	c := *t
	c.span = make([]uint64, n)
	copy(c.span, t.span)
	c.arena = t.arena[:len(t.arena):len(t.arena)]
	return c
}

// compacted returns t with its arena rewritten to the filed rows alone when
// more than half of it is rows no span points at any more.
func (t rowTable) compacted() rowTable {
	live := 0
	for _, sp := range t.span {
		if sp != 0 {
			live += int(uint32(sp - 1))
		}
	}
	if 2*live >= len(t.arena) {
		return t
	}
	c := rowTable{span: make([]uint64, len(t.span)), arena: make([]int, 0, live)}
	for u := range t.span {
		if row, ok := t.get(u); ok {
			c.file(u, row)
		}
	}
	return c
}

// widenBits returns a copy of b over n nodes, the new ones unset.
func widenBits(b []uint64, n int) []uint64 {
	c := make([]uint64, max(len(b), (n+63)/64))
	copy(c, b)
	return c
}

func setBit(b []uint64, i int, on bool) {
	if on {
		bitSet(b, i)
	} else {
		b[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// touchedBy reports whether a delta over the given labels can change a pair of
// the entry's relation: when one of them labels a transition of its atom's
// automaton, which has the negated classes expanded over Σ.
func (e *atomEntry) touchedBy(labels []rune) bool {
	return slices.ContainsFunc(e.atom.nfa.Labels(), func(l int32) bool { return slices.Contains(labels, rune(l)) })
}

// growRelation widens a relation untouched by the delta to the new node
// count: old rows are shared, rows of newly interned nodes are empty — or
// the identity singleton when ε is in the atom's language. Levels are
// carried over unchanged (an untouched atom's paths — and so its shortest
// paths — cannot change) with level 0 for the identity rows.
func growRelation(old *EdgeRel, newN int, hasEps bool) *EdgeRel {
	oldN := old.NumNodes()
	if newN == oldN {
		return old
	}
	r := &EdgeRel{fwd: make([][]int, newN), size: old.size}
	copy(r.fwd, old.fwd)
	if old.lev != nil {
		r.lev = make([][]int32, newN)
		copy(r.lev, old.lev)
	}
	if hasEps {
		for u := oldN; u < newN; u++ {
			r.fwd[u] = []int{u}
			if r.lev != nil {
				r.lev[u] = []int32{0}
			}
			r.size++
		}
	}
	if rev, revLev, ok := old.reverse(); ok {
		nrev, nlev := widenReverse(rev, revLev, newN)
		for u := oldN; u < newN && hasEps; u++ {
			nrev[u] = r.fwd[u]
			if nlev != nil {
				nlev[u] = r.lev[u]
			}
		}
		r.setReverse(nrev, nlev)
	}
	return r
}

// extendRelation returns old over newN nodes with the rows (and levels, when
// old has them) of the sources srcs replaced by res, their search over the
// new graph: no other source can reach a changed edge, so neither its pair
// set nor its shortest path lengths changed.
func extendRelation(old *EdgeRel, newN int, srcs []int, res engine.BatchResult) *EdgeRel {
	r := &EdgeRel{fwd: make([][]int, newN), size: old.size}
	copy(r.fwd, old.fwd)
	if old.lev != nil {
		r.lev = make([][]int32, newN)
		copy(r.lev, old.lev)
	}
	for i, u := range srcs {
		r.size += len(res.Hits[i]) - len(r.fwd[u])
		r.fwd[u] = res.Hits[i]
		if r.lev != nil {
			r.lev[u] = res.Levs[i]
		}
	}
	if rev, revLev, ok := old.reverse(); ok {
		r.setReverse(carryReverse(old, r, rev, revLev, srcs))
	}
	return r
}

// widenReverse returns a copy of a reverse index over n nodes, sharing its
// lists; the new nodes' are empty.
func widenReverse(rev [][]int, revLev [][]int32, n int) ([][]int, [][]int32) {
	nrev := make([][]int, n)
	copy(nrev, rev)
	var nlev [][]int32
	if revLev != nil {
		nlev = make([][]int32, n)
		copy(nlev, revLev)
	}
	return nrev, nlev
}

// carryReverse returns the reverse index of r — old with the rows of the
// ascending sources srcs replaced — from old's, rev and revLev: only the
// lists of targets in those sources' old or new rows change, and each
// becomes its old list without srcs merged with the sources of srcs whose new
// row holds it. The other lists are shared.
func carryReverse(old, r *EdgeRel, rev [][]int, revLev [][]int32, srcs []int) ([][]int, [][]int32) {
	n := len(r.fwd)
	nrev, nlev := widenReverse(rev, revLev, n)
	inSrc := make([]uint64, (n+63)/64)
	for _, u := range srcs {
		bitSet(inSrc, u)
	}
	type gain struct {
		us   []int
		levs []int32
	}
	gains := map[int]*gain{} // target -> the sources of srcs whose new row holds it, ascending
	for _, u := range srcs {
		for _, v := range old.Forward(u) {
			if gains[v] == nil {
				gains[v] = &gain{}
			}
		}
		ws, ls := r.forward(u)
		for i, v := range ws {
			g := gains[v]
			if g == nil {
				g = &gain{}
				gains[v] = g
			}
			g.us = append(g.us, u)
			if nlev != nil {
				g.levs = append(g.levs, ls[i])
			}
		}
	}
	for v, g := range gains {
		var was []int
		var wasLev []int32
		if v < len(rev) {
			was = rev[v]
			if revLev != nil {
				wasLev = revLev[v]
			}
		}
		us := make([]int, 0, len(was)+len(g.us))
		var levs []int32
		if nlev != nil {
			levs = make([]int32, 0, cap(us))
		}
		for i, j := 0, 0; i < len(was) || j < len(g.us); {
			if i < len(was) && bitHas(inSrc, was[i]) {
				i++
				continue
			}
			if j == len(g.us) || i < len(was) && was[i] < g.us[j] {
				us = append(us, was[i])
				if levs != nil {
					levs = append(levs, wasLev[i])
				}
				i++
			} else {
				us = append(us, g.us[j])
				if levs != nil {
					levs = append(levs, g.levs[j])
				}
				j++
			}
		}
		nrev[v] = us
		if nlev != nil {
			nlev[v] = levs
		}
	}
	return nrev, nlev
}

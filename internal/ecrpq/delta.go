package ecrpq

import (
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// This file is the relation layer's half of the incremental-update
// subsystem: RelCache.ApplyDelta maintains the materialized atom relations
// across an insert-only database delta instead of flushing them. Per entry
// it decides between three fates using the metadata captured at
// For() time:
//
//   - retain: the delta's labels are disjoint from the atom's alphabet. A
//     matching path can only use the atom's own symbols, so no new pair can
//     appear; the relation is kept, grown by rows for newly interned nodes
//     (an identity row when ε ∈ L, since every node trivially ε-reaches
//     itself).
//   - extend: the delta's labels intersect the atom's alphabet. Any NEW
//     matching path must pass through an added edge, so only sources that
//     can reach an added edge's tail in the updated graph can gain targets;
//     those frontier sources are re-searched (engine.ReachBatchEx over the
//     shared compiled automaton) and every other row is carried over. Edge
//     insertion is monotone for reachability, which is what makes carrying
//     rows sound.
//   - recompute: anything that defeats the classification (a relation whose
//     node range doesn't match the pre-delta node count) falls back to
//     RelationFor.
//
// Removals and alphabet changes never reach this code: the session layer
// flushes the whole cache for those (see cxrpq.Session), because a removed
// edge can shrink relations in ways no local frontier bounds.

// labelAlphabet collects the literal symbols of a label's AST. universal
// reports that the language may involve any symbol of Σ — a negated
// character class (incl. the "." wildcard) or a variable — in which case
// syms is not exhaustive and the entry must be treated as intersecting
// every delta.
func labelAlphabet(n xregex.Node) (syms map[rune]bool, universal bool) {
	syms = map[rune]bool{}
	var walk func(xregex.Node)
	walk = func(n xregex.Node) {
		switch t := n.(type) {
		case *xregex.Sym:
			syms[t.R] = true
		case *xregex.Class:
			if t.Neg {
				universal = true
			} else {
				for _, r := range t.Set {
					syms[r] = true
				}
			}
		case *xregex.Ref:
			universal = true
		case *xregex.Def:
			universal = true
			walk(t.Body)
		case *xregex.Cat:
			for _, k := range t.Kids {
				walk(k)
			}
		case *xregex.Alt:
			for _, k := range t.Kids {
				walk(k)
			}
		case *xregex.Plus:
			walk(t.Kid)
		case *xregex.Star:
			walk(t.Kid)
		case *xregex.Opt:
			walk(t.Kid)
		}
	}
	walk(n)
	return syms, universal
}

// deltaFrontier is the set of sources whose relation rows an insert-only
// delta can change: every node that reaches the tail of an added edge in
// the updated graph (over any label — a sound over-approximation of the
// per-atom alphabets), plus every newly interned node (which has no row
// yet). Computed once per ApplyDelta and shared by all extended entries.
type deltaFrontier struct {
	bits []uint64
	list []int
}

func (f *deltaFrontier) has(u int) bool { return f.bits[u/64]&(1<<(uint(u)%64)) != 0 }

func buildFrontier(db *graph.DB, info *graph.DeltaInfo) *deltaFrontier {
	n := db.NumNodes()
	f := &deltaFrontier{bits: make([]uint64, (n+63)/64)}
	push := func(u int) {
		if !f.has(u) {
			f.bits[u/64] |= 1 << (uint(u) % 64)
			f.list = append(f.list, u)
		}
	}
	for u := info.FirstNewNode(); u < n; u++ {
		push(u)
	}
	var queue []int
	for _, e := range info.Added {
		if !f.has(e.From) {
			push(e.From)
			queue = append(queue, e.From)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range db.In(u) {
			if !f.has(e.From) {
				push(e.From)
				queue = append(queue, e.From)
			}
		}
	}
	return f
}

// Size returns the number of frontier sources.
func (f *deltaFrontier) Size() int { return len(f.list) }

// ApplyDelta maintains every cached relation across an insert-only delta
// with no new labels (the caller — cxrpq.Session — guarantees both; other
// deltas must Reset instead). It returns the number of entries retained and
// frontier-extended; on any error the cache is left empty, which is always
// correct.
func (c *RelCache) ApplyDelta(db *graph.DB, info *graph.DeltaInfo) (retained, extended int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if info.Empty() || len(c.m) == 0 {
		retained = len(c.m)
		c.retained += uint64(retained)
		return retained, 0, nil
	}
	deltaSyms := map[rune]bool{}
	for _, r := range info.Labels {
		deltaSyms[r] = true
	}
	oldN := info.FirstNewNode()
	var frontier *deltaFrontier
	for _, e := range c.m {
		_, isEmpty := e.label.(*xregex.Empty)
		touched := !isEmpty && e.universal
		if !touched && !isEmpty {
			for r := range deltaSyms {
				if e.syms[r] {
					touched = true
					break
				}
			}
		}
		switch {
		case e.rel.NumNodes() != oldN:
			// Unexpected range (shouldn't happen): recompute outright.
			rel, rerr := RelationFor(db, e.label, e.sigma)
			if rerr != nil {
				c.m = map[string]*relEntry{}
				return 0, 0, rerr
			}
			e.rel = rel
			extended++
		case !touched:
			e.rel = growRelation(e.rel, info.Nodes, e.hasEps)
			retained++
		default:
			if frontier == nil {
				frontier = buildFrontier(db, info)
			}
			rel, rerr := extendRelation(db, e, frontier, info.Nodes)
			if rerr != nil {
				c.m = map[string]*relEntry{}
				return 0, 0, rerr
			}
			e.rel = rel
			extended++
		}
	}
	c.retained += uint64(retained)
	c.extended += uint64(extended)
	return retained, extended, nil
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
	return r
}

// extendRelation recomputes exactly the frontier sources' rows of a touched
// relation over the updated graph (one sharded ReachBatch sweep over the
// frontier instead of a per-source fan) and carries every other row over —
// including its levels when the entry has them: a non-frontier source
// cannot reach any added edge, so neither its pair set nor its shortest
// path lengths changed.
func extendRelation(db *graph.DB, e *relEntry, frontier *deltaFrontier, newN int) (*EdgeRel, error) {
	ent, err := compiledFor(e.label, e.sigma)
	if err != nil {
		return nil, err
	}
	ix := db.Index()
	withLev := e.rel.lev != nil
	res := engine.ReachBatchEx(ix, ent.cache, frontier.list, true,
		engine.ReachOpts{Levels: withLev})
	r := &EdgeRel{fwd: make([][]int, newN)}
	copy(r.fwd, e.rel.fwd)
	if withLev {
		r.lev = make([][]int32, newN)
		copy(r.lev, e.rel.lev)
	}
	for i, u := range frontier.list {
		r.fwd[u] = res.Hits[i]
		if withLev {
			r.lev[u] = res.Levs[i]
		}
	}
	for _, vs := range r.fwd {
		r.size += len(vs)
	}
	return r, nil
}

package ecrpq

import (
	"slices"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
)

// This file is the atom store's half of the incremental-update subsystem:
// atomFacts.afterInserts maintains the materialized atom relations across an
// insert-only database delta instead of flushing them. Per relation it
// decides between two fates:
//
//   - retain: the delta's labels are disjoint from the atom's alphabet (the
//     labels of its automaton's transitions: touchedBy). A matching path can
//     only use the atom's own symbols, so no new pair can
//     appear; the relation is kept, grown by rows for newly interned nodes
//     (an identity row when ε ∈ L, since every node trivially ε-reaches
//     itself).
//   - extend: the delta's labels intersect the atom's alphabet. Any NEW
//     matching path must pass through an added edge, so only sources that
//     can reach an added edge's tail in the updated graph can gain targets;
//     those frontier sources are re-searched (engine.ReachBatchEx over the
//     automaton the entry's atom carries) and every other row is carried
//     over. Edge insertion is monotone for reachability, which is what makes
//     carrying rows sound.
//
// Removals and alphabet changes never reach this code (AtomStore.successor):
// a removed edge can shrink relations in ways no local frontier bounds.

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

// afterInserts returns the facts that outlive an insert-only delta with no
// new labels (successor guarantees both), over the updated database db: every
// atom with its automaton, every relation retained or frontier-extended,
// every positive verdict, and nothing else — no delta maintains a support or
// a probe row, the kernel recomputes them, and a label that matched nothing
// may match now. f is only read, under its lock; the searches run outside it.
func (f *atomFacts) afterInserts(db *graph.DB, info *graph.DeltaInfo) *atomFacts {
	f.mu.Lock()
	nf := &atomFacts{ctr: f.ctr, budget: f.budget, m: make(map[string]*atomEntry, len(f.m))}
	for key, e := range f.m {
		nf.m[key] = &atomEntry{atom: e.atom, rel: e.rel, exists: max(e.exists, 0)}
	}
	f.mu.Unlock()
	oldN := info.FirstNewNode()
	var frontier *deltaFrontier
	var retained, extended uint64
	for _, e := range nf.m {
		switch {
		case e.rel == nil:
		case e.rel.NumNodes() != oldN: // not of the predecessor's graph: cannot happen, and costs one rebuild if it does
			e.rel = nil
		case !e.touchedBy(info.Labels):
			e.rel = growRelation(e.rel, info.Nodes, e.atom.cache.Final(e.atom.cache.Start()))
			retained++
		default:
			if frontier == nil {
				frontier = buildFrontier(db, info)
			}
			e.rel = extendRelation(db, e.rel, e.atom, frontier, info.Nodes, &f.ctr.kernel)
			extended++
		}
		nf.bytes += e.size()
	}
	if nf.bytes > nf.budget {
		nf.m, nf.bytes = map[string]*atomEntry{}, 0
		nf.ctr.evictions.Add(1)
	}
	nf.ctr.retained.Add(retained)
	nf.ctr.extended.Add(extended)
	return nf
}

// touchedBy reports whether a delta over the given labels can add a pair to
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
	return r
}

// extendRelation recomputes exactly the frontier sources' rows of a touched
// relation over the updated graph (one sharded ReachBatch sweep over the
// frontier instead of a per-source fan) and carries every other row over —
// including its levels when the entry has them: a non-frontier source
// cannot reach any added edge, so neither its pair set nor its shortest
// path lengths changed. The searches report into count.
func extendRelation(db *graph.DB, old *EdgeRel, a *Atom, frontier *deltaFrontier, newN int, count *engine.Counters) *EdgeRel {
	withLev := old.lev != nil
	res := engine.ReachBatchEx(db.Index(), a.cache, frontier.list, true,
		engine.ReachOpts{Levels: withLev, Count: count})
	r := &EdgeRel{fwd: make([][]int, newN)}
	copy(r.fwd, old.fwd)
	if withLev {
		r.lev = make([][]int32, newN)
		copy(r.lev, old.lev)
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
	return r
}

package ecrpq

import (
	"slices"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// The atom store. Every evaluation bottoms out in one question — which node
// pairs of D does the classical regex L connect? — and its answer is a
// function of (L, Σ, D) and of nothing else in the query. The store holds
// those answers for one database revision, each entry filed under the key its
// atom (L, Σ) computed once (AtomStore.Atom) and holding that atom:
//
//   - the atom itself, whose compiled automaton is charged to the entry;
//   - the complete relation (*EdgeRel), level-less until a ranked request
//     upgrades it in place;
//   - the support per direction — the sources, or the targets, as a node
//     bitset — which stands in for the pairs of an atom whose other endpoint
//     nothing reads, and its diagonal EdgeRel view, built at most once;
//   - the existence verdict: does L label any path of D at all;
//   - the probe rows per direction — the targets, or the sources, of single
//     nodes — that the lazy executor asked for so far (rowTable).
//
// It is the only resolver of these — the lazy executor (probeAtom) and the
// bounded engine of internal/cxrpq both ask it, and it alone runs the
// reachability kernel for them — so what one request
// derived, every later and concurrent one over the revision finds, whatever
// its query text. It lives in the database's derived-state slot
// (graph.DB.Derived) and is collected with the snapshot; what bounds it is
// bytes (atomBudget), automata included. See "The atom store" in
// internal/README.md.

// AtomStore is the atom store of one database at one revision. All methods
// are safe for concurrent use.
type AtomStore struct {
	db   *graph.DB
	rev  uint64
	same uint64 // an older revision with the graph of rev — the predecessor's, across net-empty windows — or rev
	*atomFacts
}

// atomFacts is the table itself, shared by the stores of revisions with the
// same graph.
type atomFacts struct {
	ctr    *atomCounters // of the whole lineage
	budget int64

	mu    sync.Mutex
	m     map[string]*atomEntry
	bytes int64
}

// atomBudget bounds the bytes one store accounts for (atomEntry.size). On
// overflow the epoch is dropped: entries are pure caches.
const atomBudget = 64 << 20

type atomCounters struct {
	hits, misses, evictions            atomic.Uint64
	deltaPasses, retains, fullRebuilds atomic.Uint64
	retained, extended                 atomic.Uint64
	kernel                             engine.Counters // every kernel call the store makes, the delta pass's included
}

// atomEntry holds what is known about one atom. Fields are read and written
// under atomFacts.mu; the values they point to are immutable.
type atomEntry struct {
	atom *Atom // never nil: what a delta classifies and extends rel by
	rel  *EdgeRel

	sup    [2][]uint64 // [0] the sources, [1] the targets
	diag   [2]*EdgeRel // sup as the relation {(u, u)}
	exists int8        // +1 some path matches, -1 none does, 0 not asked
	rows   [2]rowTable // [0] the targets of a source, [1] the sources of a target
}

// rowTable is one direction's probe rows of an atom: row u is arena[lo:lo+k]
// where span[u] = 1 + (lo<<32 | k), and 0 means not filed. Nothing in it but
// the arena is a pointer, so however many rows it holds the collector scans
// two slice headers. Rows are handed out capacity-limited: an append by a
// holder reallocates instead of writing into the next row.
type rowTable struct {
	arena []int
	span  []uint64
}

func (t *rowTable) bytes() int64 { return 8 * int64(len(t.span)+len(t.arena)) }

// get returns the row of node u, and whether it is filed.
func (t *rowTable) get(u int) ([]int, bool) {
	if uint(u) >= uint(len(t.span)) || t.span[u] == 0 {
		return nil, false
	}
	sp := t.span[u] - 1
	lo, hi := int(sp>>32), int(sp>>32)+int(uint32(sp))
	return t.arena[lo:hi:hi], true
}

// put files row as the row of node u, one of n, by copying it into the arena;
// a node out of range has no row to file.
func (t *rowTable) put(n, u int, row []int) {
	if t.span == nil {
		t.span = make([]uint64, n)
	}
	if uint(u) < uint(n) && t.span[u] == 0 {
		t.span[u] = 1 + (uint64(len(t.arena))<<32 | uint64(len(row)))
		t.arena = append(t.arena, row...)
	}
}

// side indexes atomEntry.sup and diag.
func side(targets bool) int {
	if targets {
		return 1
	}
	return 0
}

// relBytes accounts a relation with the reverse index it builds on demand.
func relBytes(r *EdgeRel) int64 {
	if r == nil {
		return 0
	}
	b := 24*int64(len(r.fwd)) + 8*int64(r.size)
	if r.lev != nil {
		b += 24*int64(len(r.lev)) + 4*int64(r.size)
	}
	return 2 * b
}

func (e *atomEntry) supBytes() (n int64) {
	for d := range e.sup {
		n += 8*int64(len(e.sup[d])) + relBytes(e.diag[d])
	}
	return n
}

func (e *atomEntry) rowBytes() int64 { return e.rows[0].bytes() + e.rows[1].bytes() }

// size is what the entry is accounted at: 160 bytes, its key and its atom's
// automaton before it holds any fact.
func (e *atomEntry) size() int64 {
	return 160 + int64(len(e.atom.key)) + e.atom.size + relBytes(e.rel) + e.supBytes() + e.rowBytes()
}

// Atoms returns the atom store of db at its current revision, maintaining the
// one in db's slot first if a mutation left it behind.
func Atoms(db *graph.DB) *AtomStore { return (*AtomStore)(nil).CarryTo(db) }

// CarryTo returns the atom store of db, a successor of s's database — the
// next snapshot view of its lineage: if db has none at its revision yet, s's
// facts are brought up to it (successor), once; a later caller adopts what the
// first one left.
func (s *AtomStore) CarryTo(db *graph.DB) *AtomStore {
	return db.Derived(func(cur any) any {
		have, _ := cur.(*AtomStore)
		if have == nil {
			have = s
		} else if have.rev == db.Revision() {
			return have
		}
		return have.successor(db)
	}).(*AtomStore)
}

// successor is the invalidation matrix, applied once per revision move. s is
// never modified: readers pinned to an older view keep its facts.
//
//	net-empty window                 the facts are shared as they are
//	insert-only, alphabet unchanged  relations retained or frontier-extended,
//	                                 positive verdicts kept, the rest (supports,
//	                                 probe rows) dropped (afterInserts)
//	anything else, or no s           a fresh store
func (s *AtomStore) successor(db *graph.DB) *AtomStore {
	ns := &AtomStore{db: db, rev: db.Revision(), same: db.Revision()}
	ns.atomFacts = &atomFacts{ctr: &atomCounters{}, budget: atomBudget, m: map[string]*atomEntry{}}
	if s != nil {
		ns.ctr, ns.budget = s.ctr, s.budget
		if info := db.DeltaSince(s.rev); info != nil {
			switch {
			case info.Empty():
				ns.same, ns.atomFacts = s.same, s.atomFacts
				s.ctr.retains.Add(1)
				return ns
			case info.InsertOnly() && len(info.NewLabels) == 0:
				ns.atomFacts = s.afterInserts(db, info)
				s.ctr.deltaPasses.Add(1)
				return ns
			}
		}
	}
	ns.ctr.fullRebuilds.Add(1)
	return ns
}

// SameGraph reports whether the database is known to have had, at revision
// rev, the graph the store's facts hold for: what was derived from it then
// is still good.
func (s *AtomStore) SameGraph(rev uint64) bool { return rev == s.rev || rev == s.same }

// Atom returns the atom of label over sigma: the one the store holds, or one
// compiled now and filed — charged to the budget — unless another caller was
// first. It is the one place a label is printed.
func (s *AtomStore) Atom(label xregex.Node, sigma []rune) (*Atom, error) {
	key := xregex.String(label) + "\x00" + string(sigma)
	s.mu.Lock()
	if e := s.m[key]; e != nil {
		s.mu.Unlock()
		return e.atom, nil
	}
	s.mu.Unlock()
	m, err := xregex.Compile(label, sigma)
	if err != nil {
		return nil, err
	}
	a := &Atom{label: label, key: key, nfa: m, cache: automata.NewSubsetCache(m),
		size: 25*int64(m.NumStates()) + 16*int64(m.NumTransitions())}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil { // raced with another compiler
		return e.atom, nil
	}
	s.grew(s.entry(a))
	return a, nil
}

// resolve is the one way a fact is looked up: read finds it in the entry of
// a, or build computes it — outside the lock, and under whatever budget the
// caller closed over: a failed or cut build installs nothing — and write
// files it, unless another builder was first. What the entry grew by is
// accounted, and a store over its budget drops every other entry.
func resolve[T any](s *AtomStore, a *Atom, read func(*atomEntry) (T, bool), build func() (T, error), write func(*atomEntry, T)) (T, error) {
	s.mu.Lock()
	if e := s.m[a.key]; e != nil {
		if v, ok := read(e); ok {
			s.mu.Unlock()
			s.ctr.hits.Add(1)
			return v, nil
		}
	}
	s.mu.Unlock()
	s.ctr.misses.Add(1)
	v, err := build()
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, before := s.entry(a)
	if old, ok := read(e); ok {
		return old, nil
	}
	write(e, v)
	s.grew(e, before)
	return v, nil
}

// entry returns the entry of a and the bytes it is accounted at, filing an
// empty one — at 0 bytes so far — if an eviction dropped it or it was never
// filed. The caller holds s.mu.
func (s *AtomStore) entry(a *Atom) (*atomEntry, int64) {
	if e := s.m[a.key]; e != nil {
		return e, e.size()
	}
	e := &atomEntry{atom: a}
	s.m[a.key] = e
	return e, 0
}

// grew accounts what e grew by since it was before bytes, and drops every
// other entry of a store over its budget. The caller holds s.mu.
func (s *AtomStore) grew(e *atomEntry, before int64) {
	if s.bytes += e.size() - before; s.bytes > s.budget && len(s.m) > 1 {
		s.m = map[string]*atomEntry{e.atom.key: e}
		s.bytes = e.size()
		s.ctr.evictions.Add(1)
	}
}

// Relation resolves the complete relation of a (see BuildRelation for the
// options). With o.Levels a stored level-less relation is upgraded in
// place on first ranked demand; callers that did not ask for levels may
// therefore be handed a relation that carries them, which is why joins take
// ranked-ness from their own options and never from the relation. A
// budget-truncated build returns engine.ErrCanceled and installs nothing: a
// partial relation would silently drop answers from every later query on the
// snapshot. A weighted build is counted like any other, but has no identity
// to file it under and is filed nowhere.
func (s *AtomStore) Relation(a *Atom, o engine.ReachOpts) (*EdgeRel, error) {
	o.Count = &s.ctr.kernel
	if o.Weight != nil {
		return BuildRelation(s.db, a, o)
	}
	return resolve(s, a,
		func(e *atomEntry) (*EdgeRel, bool) { return e.rel, e.rel != nil && (!o.Levels || e.rel.lev != nil) },
		func() (*EdgeRel, error) { return BuildRelation(s.db, a, o) },
		func(e *atomEntry, rel *EdgeRel) { e.rel = rel })
}

// support resolves the sources — with targets, the targets — of the relation
// of a, as a node bitset, by one engine.Support sweep that builds no pair. A
// sweep the budget cut returns engine.ErrCanceled.
func (s *AtomStore) support(a *Atom, targets bool, bud *engine.Budget) ([]uint64, error) {
	d := side(targets)
	return resolve(s, a,
		func(e *atomEntry) ([]uint64, bool) { return e.sup[d], e.sup[d] != nil },
		func() ([]uint64, error) {
			c := a.cache
			if !targets {
				c = a.reverse()
			}
			sup, _, cut := engine.Support(s.db.Index(), c, targets, false, bud, &s.ctr.kernel)
			if cut {
				return nil, engine.ErrCanceled
			}
			return sup, nil
		},
		func(e *atomEntry, sup []uint64) { e.sup[d] = sup })
}

// rows resolves into out the probe rows of nodes — the targets of each when
// forward, else its sources: from the entry's complete relation when it has
// one, else from the direction's row table, and the rows found in neither by
// one kernel call outside the lock (engine.Reach for one node,
// engine.ReachBatchEx for more), which are filed unless the budget cut it
// (cut: those rows may be missing nodes). Only cost-free rows are shared:
// under o.Levels or o.Weight every row is searched for the caller alone, with
// its costs, and filed nowhere.
func (s *AtomStore) rows(a *Atom, forward bool, nodes []int, o engine.ReachOpts, out []probeRow) (cut bool) {
	d, shared := side(!forward), !o.Levels && o.Weight == nil
	missing := nodes // the nodes to search, in the order of nodes
	if shared {
		s.mu.Lock()
		e := s.m[a.key]
		if e != nil && e.rel != nil {
			list := e.rel.forward
			if !forward {
				list = e.rel.backward // builds the reverse index on first use
			}
			s.mu.Unlock()
			for i, u := range nodes {
				out[i].nodes, _ = list(u)
			}
			s.ctr.hits.Add(1)
			return false
		}
		if e != nil && e.rows[d].span != nil {
			missing = nil
			for i, u := range nodes {
				var ok bool
				if out[i].nodes, ok = e.rows[d].get(u); !ok {
					if missing == nil {
						missing = make([]int, 0, len(nodes)-i)
					}
					missing = append(missing, u)
				}
			}
		}
		s.mu.Unlock()
		if len(missing) == 0 {
			s.ctr.hits.Add(1)
			return false
		}
	}
	s.ctr.misses.Add(1)
	o.Count = &s.ctr.kernel
	c := a.cache
	if !forward {
		c = a.reverse()
	}
	var h1 [1][]int
	var l1 [1][]int32
	hits, levs := h1[:], l1[:]
	if len(missing) == 1 {
		h1[0], l1[0] = engine.Reach(s.db.Index(), c, missing[0], forward, o)
		cut = o.Budget.Canceled()
	} else {
		res := engine.ReachBatchEx(s.db.Index(), c, missing, forward, o)
		hits, levs, cut = res.Hits, res.Levs, res.Truncated
	}
	for i, k := 0, 0; k < len(missing); i++ { // missing is a subsequence of nodes
		if nodes[i] == missing[k] {
			out[i].nodes = hits[k]
			if levs != nil {
				out[i].costs = levs[k]
			}
			k++
		}
	}
	if shared && !cut {
		total := 0
		for _, row := range hits {
			total += len(row)
		}
		s.mu.Lock()
		e, before := s.entry(a)
		t := &e.rows[d]
		t.arena = slices.Grow(t.arena, total)
		for k, u := range missing {
			t.put(s.db.NumNodes(), u, hits[k])
		}
		s.grew(e, before)
		s.mu.Unlock()
	}
	return cut
}

// Support is the support as the diagonal relation {(u, u)}: in an unranked
// join where nothing reads the atom's other endpoint (pattern.Graph.Reads)
// that stands in for the pairs.
func (s *AtomStore) Support(a *Atom, targets bool, bud *engine.Budget) (*EdgeRel, error) {
	d := side(targets)
	return resolve(s, a,
		func(e *atomEntry) (*EdgeRel, bool) { return e.diag[d], e.diag[d] != nil },
		func() (*EdgeRel, error) {
			sup, err := s.support(a, targets, bud)
			if err != nil {
				return nil, err
			}
			ids, diag := bitList(sup), &EdgeRel{fwd: make([][]int, s.db.NumNodes())}
			for i, u := range ids {
				diag.fwd[u] = ids[i : i+1 : i+1]
			}
			diag.size = len(ids)
			return diag, nil
		},
		func(e *atomEntry, diag *EdgeRel) { e.diag[d] = diag })
}

// PathExists reports whether some path of the database matches a — whether
// its relation is non-empty — without computing it: an
// ε-accepting label holds at every node, and anything else is one
// engine.Support sweep from every node at once that stops at its first
// accepted configuration. A budget that cancels before a hit yields (false,
// engine.ErrCanceled) — the answer is unknown, not no — and leaves no verdict.
func (s *AtomStore) PathExists(a *Atom, bud *engine.Budget) (bool, error) {
	if a.empty() || s.db.NumNodes() == 0 {
		return false, nil
	}
	return resolve(s, a,
		func(e *atomEntry) (yes, known bool) {
			return e.exists > 0 || e.rel != nil && !e.rel.Empty(), e.exists != 0 || e.rel != nil
		},
		func() (bool, error) {
			if a.cache.Final(a.cache.Start()) {
				return true, nil
			}
			_, hits, _ := engine.Support(s.db.Index(), a.cache, true, true, bud, &s.ctr.kernel)
			if hits > 0 {
				return true, nil
			}
			return false, bud.Err()
		},
		func(e *atomEntry, yes bool) {
			if e.exists = -1; yes {
				e.exists = 1
			}
		})
}

// Verdicts returns the stored existence verdicts, by label print and alphabet.
func (s *AtomStore) Verdicts() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]bool{}
	for key, e := range s.m {
		if e.exists != 0 {
			out[key] = e.exists > 0
		}
	}
	return out
}

// AtomKind counts the facts of one kind and the bytes accounted to them.
type AtomKind struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// AtomStats is a point-in-time snapshot of a store: what it holds, and the
// counters of its lineage — they carry over every revision move.
type AtomStats struct {
	Automata  AtomKind `json:"automata"` // entries: atoms held; bytes: charged for their NFAs
	Relations AtomKind `json:"relations"`
	Supports  AtomKind `json:"supports"`
	Verdicts  AtomKind `json:"verdicts"`
	Rows      AtomKind `json:"rows"`  // entries: row tables, one per atom and direction
	Bytes     int64    `json:"bytes"` // accounted in all, entry overheads included
	Budget    int64    `json:"budget"`

	// Lookups of every kind of fact; a row request counts as a hit when no
	// kernel call answers any of its nodes. Asking for an atom is no lookup.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"` // whole-epoch drops on overflow

	// Revision moves, by row of the matrix, and what the delta passes did to
	// the relations they found.
	DeltaPasses  uint64 `json:"delta_passes"`
	Retains      uint64 `json:"retains"`
	FullRebuilds uint64 `json:"full_rebuilds"`
	Retained     uint64 `json:"retained"`
	Extended     uint64 `json:"extended"`

	Kernel engine.KernelStats `json:"kernel"` // the work of every kernel call the store made
}

// Stats returns a snapshot of the store.
func (s *AtomStore) Stats() AtomStats {
	c := s.ctr
	st := AtomStats{Budget: s.budget,
		Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(),
		DeltaPasses: c.deltaPasses.Load(), Retains: c.retains.Load(), FullRebuilds: c.fullRebuilds.Load(),
		Retained: c.retained.Load(), Extended: c.extended.Load(), Kernel: c.kernel.Load()}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Bytes = s.bytes
	st.Automata.Entries = len(s.m)
	for _, e := range s.m {
		st.Automata.Bytes += e.atom.size
		if e.rel != nil {
			st.Relations.Entries++
			st.Relations.Bytes += relBytes(e.rel)
		}
		for d := range e.sup {
			if e.sup[d] != nil {
				st.Supports.Entries++
			}
		}
		st.Supports.Bytes += e.supBytes()
		for d := range e.rows {
			if e.rows[d].span != nil {
				st.Rows.Entries++
			}
		}
		st.Rows.Bytes += e.rowBytes()
		if e.exists != 0 {
			st.Verdicts.Entries++
			st.Verdicts.Bytes++
		}
	}
	return st
}

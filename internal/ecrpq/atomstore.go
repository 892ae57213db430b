package ecrpq

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
//   - the probe rows per direction — the targets, or the sources, of single
//     nodes — that the executor asked for so far (rowTable). A complete
//     table holds an atom's pairs, the one stored form of them: the other
//     direction's complete table is its inversion, filed once (invert);
//   - the support per direction — the sources, or the targets, as a node
//     bitset — which stands in for the pairs of an atom whose other endpoint
//     nothing reads, filed with every complete table too;
//   - the existence verdict: does L label any path of D at all.
//
// It is the only resolver of these — the executor's atoms (probeAtom), the
// bounded engine's leaves included, ask it, and it alone runs the
// reachability kernel for them — so what one request
// derived, every later and concurrent one over the revision finds, whatever
// its query text. An answer q(D) is a function of the query and the database
// alone too, so the store also holds the answers the layer above files under
// keys of its own (Answer, FileAnswer): whole answers and ranked prefixes,
// opaque here but for how a revision move treats them (Carry). It lives in
// the database's derived-state slot (graph.DB.Derived) and is collected with
// the snapshot; what bounds it is one byte account (atomBudget), automata
// and answers included. See "The atom store" in internal/README.md.

// AtomStore is the atom store of one database at one revision. All methods
// are safe for concurrent use.
type AtomStore struct {
	db  *graph.DB
	rev uint64
	*atomFacts
}

// atomFacts is the table itself, shared by the stores of revisions with the
// same graph. Its entries describe the graph of revision rev once settled; a
// stale one — carried from an older table and not looked up since —
// describes the older graph of its own rev, and the first lookup brings it
// up to date (current).
type atomFacts struct {
	ctr    *atomCounters // of the whole lineage
	budget int64
	rev    uint64

	mu    sync.Mutex
	m     map[string]*atomEntry
	ans   map[any]answer     // nil until the first answer is filed
	stale map[uint64]int     // stale entries and answers by the revision they describe
	wins  map[uint64]*window // by such a revision: what changed since, while stale items of it remain
	bytes int64              // entries, answers and windows
}

// atomBudget bounds the bytes one store accounts for (atomEntry.size,
// answer.bytes and window.bytes). On overflow the epoch is dropped: entries
// are pure caches.
const atomBudget = 64 << 20

type atomCounters struct {
	hits, misses, evictions            atomic.Uint64
	resultHits, resultMisses           atomic.Uint64
	resultCarried, resultDropped       atomic.Uint64
	deltaPasses, retains, fullRebuilds atomic.Uint64
	retained, extended                 atomic.Uint64
	kernel                             engine.Counters // every kernel call the store makes, settling's included
}

// answer is one filed answer and what it is accounted at: answerOverhead
// plus 4 bytes per value it holds. rev is the revision it describes: older
// than the table's when it was carried (stale) and not settled since.
type answer struct {
	v      any
	bytes  int64
	rev    uint64
	carry  Carry
	reused bool // looked up again at its revision (CarryReused)
}

const answerOverhead = 160

// Carry says what a revision move with no new label does to a filed answer.
// Edge insertion is monotone for every query the paper defines, q(D) ⊆
// q(D′), so an answer filed before a window that only inserted is a subset
// of the answer after it, and the layer that filed it can settle it (Carried,
// SettleAnswer). Over a window that removed edges only a whole answer goes
// along, for the settle driver to tell which of its rows the removal may
// have broken (SettleUnion); a verdict, or any answer over a window the
// delta log no longer covers, is dropped when it is next looked up.
type Carry uint8

const (
	CarryNone   Carry = iota // dropped by every move that changes the graph
	CarryAlways              // carried stale: a whole answer, settled over the window's frontier
	CarryReused              // carried stale once looked up again at its revision: a true verdict, whose key may never recur
)

// atomEntry holds what is known about one atom. Fields are read and written
// under atomFacts.mu; the values they point to are immutable but for the
// span of a row table still being filled, which only this entry holds, and
// the arena cells past every holder's length (rowTable). A stale entry is
// never written: settling replaces it.
type atomEntry struct {
	atom *Atom // never nil: what a delta classifies and extends the facts by
	rev  uint64

	sup    [2][]uint64 // [0] the sources, [1] the targets
	exists int8        // +1 some path matches, -1 none does, 0 not asked
	rows   [2]rowTable // [0] the targets of a source, [1] the sources of a target

	settling chan struct{} // of a stale entry being settled: closed when done
}

// rowTable is one direction's probe rows of an atom: row u is arena[lo:lo+k]
// where span[u] = 1 + (lo<<32 | k), and 0 means not filed. Nothing in it but
// the arena is a pointer, so however many rows it holds the collector scans
// two slice headers. Rows are handed out capacity-limited: an append by a
// holder reallocates instead of writing into the next row.
//
// The versions of a table — the one an entry fills, its copies carried to
// later revisions, the ones settling derives from them — share one
// append-only arena, and tail, the length of it claimed so far. Each version
// reads only the cells below its own length, which no version writes again,
// and writes past it only after a compare-and-swap has moved tail from
// exactly that length (claim): so the first version to grow from a length
// appends in place, and any other copies what it reads into an arena of its
// own.
type rowTable struct {
	arena []int
	tail  *atomic.Int64 // shared by every version over arena; nil with no arena
	span  []uint64
	filed int // rows; all n filed, the table is complete: never written again
}

func (t *rowTable) complete() bool { return t.span != nil && t.filed == len(t.span) }

// bytes is what the table is accounted at: its span and the arena it holds
// with the growth slack, shared or not.
func (t *rowTable) bytes() int64 { return 8 * int64(len(t.span)+cap(t.arena)) }

// get returns the row of node u, and whether it is filed.
func (t *rowTable) get(u int) ([]int, bool) {
	if uint(u) >= uint(len(t.span)) || t.span[u] == 0 {
		return nil, false
	}
	sp := t.span[u] - 1
	lo, hi := int(sp>>32), int(sp>>32)+int(uint32(sp))
	return t.arena[lo:hi:hi], true
}

// claim makes room for k more cells at the end of t's arena: in place when
// they fit and t's length is still the arena's claimed tail, which then moves
// past them, else in a copy of the cells t reads with a fresh tail. The
// caller appends exactly k cells next.
func (t *rowTable) claim(k int) {
	l := len(t.arena)
	if k == 0 || t.tail != nil && l+k <= cap(t.arena) && t.tail.CompareAndSwap(int64(l), int64(l+k)) {
		return
	}
	t.arena = slices.Grow(t.arena[:l:l], k)
	t.tail = new(atomic.Int64)
	t.tail.Store(int64(l + k))
}

// file sets the row of node u, filed or not, appending it to the arena.
func (t *rowTable) file(u int, row []int) {
	t.claim(len(row))
	t.put(u, row)
}

// put files row as u's at the end of the arena, room for which is claimed.
func (t *rowTable) put(u int, row []int) {
	if t.span[u] == 0 {
		t.filed++
	}
	t.span[u] = 1 + (uint64(len(t.arena))<<32 | uint64(len(row)))
	t.arena = append(t.arena, row...)
}

// support returns the nodes with a non-empty row, as a bitset.
func (t *rowTable) support() []uint64 {
	sup := make([]uint64, (len(t.span)+63)/64)
	for u, sp := range t.span {
		if uint32(sp-1) != 0 {
			bitSet(sup, u)
		}
	}
	return sup
}

// fill copies rows[k] into the arena as the row of nodes[k], one of n (none
// out of range), unless the table is complete, claiming the room for all of
// them at once; true if this call completed it.
func (t *rowTable) fill(n int, nodes []int, rows [][]int) bool {
	if t.complete() {
		return false
	}
	if t.span == nil {
		t.span = make([]uint64, n)
	}
	total := 0
	for k, u := range nodes {
		if uint(u) < uint(n) && t.span[u] == 0 {
			total += len(rows[k])
		}
	}
	t.claim(total)
	end := len(t.arena) + total
	for k, u := range nodes {
		if uint(u) < uint(n) && t.span[u] == 0 {
			t.put(u, rows[k])
		}
	}
	if l := len(t.arena); l < end { // a node listed twice: give its second row's room back
		t.tail.CompareAndSwap(int64(end), int64(l))
	}
	return t.complete()
}

// side indexes atomEntry.sup and rows: [0] the sources' side, [1] the
// targets'.
func side(targets bool) int {
	if targets {
		return 1
	}
	return 0
}

func (e *atomEntry) supBytes() int64 { return 8 * int64(len(e.sup[0])+len(e.sup[1])) }

func (e *atomEntry) rowBytes() int64 { return e.rows[0].bytes() + e.rows[1].bytes() }

// size is what the entry is accounted at: 160 bytes, its key and its atom's
// automaton before it holds any fact.
func (e *atomEntry) size() int64 {
	return 160 + int64(len(e.atom.key)) + e.atom.size + e.supBytes() + e.rowBytes()
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
//	net-empty window              the facts are shared as they are, answers
//	                              included
//	no new label                  every entry carried, stale, and settled on
//	                              its first lookup (current); the answers
//	                              filed to be carried (Carry) carried stale,
//	                              settled by their filer over the window's
//	                              frontier (Carried, SettleAnswer) — after a
//	                              removal, eval answers only, dropped
//	                              (DropCarried) when the settle driver
//	                              refuses; the other answers dropped
//	new label, uncovered, or no s a fresh store
//
// Carrying copies entry and answer headers and nothing else: no kernel
// search runs.
func (s *AtomStore) successor(db *graph.DB) *AtomStore {
	ns := &AtomStore{db: db, rev: db.Revision()}
	ns.atomFacts = newFacts(&atomCounters{}, ns.rev)
	if s != nil {
		ns.ctr, ns.budget = s.ctr, s.budget
		if info := db.DeltaSince(s.rev); info != nil {
			switch {
			case info.Empty():
				ns.atomFacts = s.atomFacts
				s.ctr.retains.Add(1)
				return ns
			case len(info.NewLabels) == 0:
				ns.atomFacts = s.carry(ns.rev)
				s.ctr.deltaPasses.Add(1)
				return ns
			}
		}
	}
	ns.ctr.fullRebuilds.Add(1)
	return ns
}

func newFacts(ctr *atomCounters, rev uint64) *atomFacts {
	return &atomFacts{ctr: ctr, budget: atomBudget, rev: rev, m: map[string]*atomEntry{}}
}

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
	e := &atomEntry{atom: a, rev: s.atomFacts.rev}
	s.m[key] = e
	s.grew(e, 0)
	return a, nil
}

// resolve is the one way a fact is looked up: read finds it in the entry of
// a, settled first, or build computes it — outside the lock, and under bud,
// the budget the caller closed over: a failed or cut build installs nothing
// — and write files it, unless another builder was first. What the entry
// grew by is accounted, and a store over its budget drops every other entry.
// A settle bud cuts returns engine.ErrCanceled, and a build that outlives
// one is returned unfiled.
func resolve[T any](s *AtomStore, a *Atom, bud *engine.Budget, read func(*atomEntry) (T, bool), build func() (T, error), write func(*atomEntry, T)) (T, error) {
	var zero T
	s.mu.Lock()
	e, err := s.current(a.key, bud)
	if e != nil {
		if v, ok := read(e); ok {
			s.mu.Unlock()
			s.ctr.hits.Add(1)
			return v, nil
		}
	}
	s.mu.Unlock()
	if err != nil {
		return zero, err
	}
	s.ctr.misses.Add(1)
	v, err := build()
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, before, ok := s.entry(a, bud)
	if !ok {
		return v, nil
	}
	if old, ok := read(e); ok {
		return old, nil
	}
	write(e, v)
	s.grew(e, before)
	return v, nil
}

// entry returns the entry of a, settled under bud, and the bytes it is
// accounted at, filing an empty one — at 0 bytes so far — if an eviction
// dropped it or it was never filed; ok is false, and nothing filed, when bud
// cut the settle. The caller holds s.mu (see current).
func (s *AtomStore) entry(a *Atom, bud *engine.Budget) (e *atomEntry, before int64, ok bool) {
	e, err := s.current(a.key, bud)
	if err != nil {
		return nil, 0, false
	}
	if e != nil {
		return e, e.size(), true
	}
	e = &atomEntry{atom: a, rev: s.atomFacts.rev}
	s.m[a.key] = e
	return e, 0, true
}

// current returns the entry filed under key brought up to the table's
// revision, or nil. A stale entry is settled under bud by the first caller to
// find it while later ones wait for it (settleEntry); a caller whose budget
// is canceled first — settling or waiting — gets engine.ErrCanceled and
// leaves the entry stale. The caller holds s.mu, which is released and taken
// again meanwhile.
func (s *AtomStore) current(key string, bud *engine.Budget) (*atomEntry, error) {
	for {
		e := s.m[key]
		if e == nil || e.rev == s.atomFacts.rev {
			return e, nil
		}
		if done := e.settling; done != nil {
			s.mu.Unlock()
			canceled := await(done, bud)
			s.mu.Lock()
			if canceled {
				return nil, engine.ErrCanceled
			}
			continue
		}
		if err := s.settleEntry(key, e, bud); err != nil {
			return nil, err
		}
	}
}

// await waits until done is closed, or bud is canceled first, which it
// reports. The budget is polled every millisecond, as a kernel polls it at
// every level.
func await(done <-chan struct{}, bud *engine.Budget) (canceled bool) {
	if bud == nil {
		<-done
		return false
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !bud.Canceled() {
		select {
		case <-done:
			return false
		case <-tick.C:
		}
	}
	return true
}

// settleEntry settles e, the stale entry filed under key, outside s.mu
// (settle), and files the result in its place unless an eviction dropped e
// meanwhile. The caller holds s.mu; it is held again on return, and not when
// settling panics. A panic, or a settle bud cuts (engine.ErrCanceled),
// installs nothing and leaves e stale for the next caller.
func (s *AtomStore) settleEntry(key string, e *atomEntry, bud *engine.Budget) error {
	done := make(chan struct{})
	e.settling = done
	s.mu.Unlock()
	settled := false
	defer func() {
		if !settled {
			s.mu.Lock()
			e.settling = nil
			s.mu.Unlock()
			close(done)
		}
	}()
	ne, fate, err := s.settle(e, s.window(e.rev), bud)
	s.mu.Lock()
	settled = true
	close(done)
	if err != nil {
		e.settling = nil
		return err
	}
	if s.m[key] != e {
		return nil
	}
	s.m[key] = ne
	s.unstale(e.rev)
	s.grew(ne, e.size())
	switch fate {
	case retained:
		s.ctr.retained.Add(1)
	case extended:
		s.ctr.extended.Add(1)
	}
	return nil
}

// unstale counts one stale entry of revision rev settled, releasing the
// window since rev with the last of them. The caller holds s.mu.
func (s *AtomStore) unstale(rev uint64) {
	if s.stale[rev]--; s.stale[rev] > 0 {
		return
	}
	delete(s.stale, rev)
	if w := s.wins[rev]; w != nil {
		s.bytes -= w.bytes
		delete(s.wins, rev)
	}
}

// grew accounts what e grew by since it was before bytes, and drops every
// other entry of a store over its budget — e is settled, so no window is
// needed any more. The caller holds s.mu.
func (s *AtomStore) grew(e *atomEntry, before int64) {
	if s.bytes += e.size() - before; s.over() {
		s.m, s.ans, s.bytes = map[string]*atomEntry{e.atom.key: e}, nil, e.size()
		s.stale, s.wins = nil, nil
	}
}

// dropAnswer removes the answer filed under key, a, from the store's
// account, releasing a window with the last stale item of its revision. The
// caller holds s.mu.
func (s *AtomStore) dropAnswer(key any, a answer) {
	delete(s.ans, key)
	s.bytes -= a.bytes
	if a.rev != s.atomFacts.rev {
		s.unstale(a.rev)
	}
}

// charge files a under key, accounted n bytes more, and drops every other
// entry of a store over its budget. The caller holds s.mu.
func (s *AtomStore) charge(key any, a answer, n int64) {
	a.bytes += n
	s.ans[key] = a
	if s.bytes += n; s.over() {
		s.m, s.ans, s.bytes = map[string]*atomEntry{}, map[any]answer{key: a}, a.bytes
		s.stale, s.wins = nil, nil
	}
}

// over reports whether the store is over its budget with more than one entry
// to drop the others of, counting the eviction its caller then makes.
func (s *AtomStore) over() bool {
	if s.bytes <= s.budget || len(s.m)+len(s.ans) <= 1 {
		return false
	}
	s.ctr.evictions.Add(1)
	return true
}

// Answer returns the answer filed under key, a comparable value the caller
// makes, if it describes the store's revision: a carried one is found by
// Carried. It counts nothing: the caller says what a hit is (CountAnswer).
func (s *AtomStore) Answer(key any) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.ans[key]
	if !ok || a.rev != s.atomFacts.rev {
		return nil, false
	}
	if a.carry == CarryReused && !a.reused {
		a.reused = true
		s.ans[key] = a
	}
	return a.v, true
}

// Carried returns the stale answer filed under key, the frontier of the
// window since the revision it describes (ascending; empty when the window
// is net-empty) and whether that window removed edges: every row the window
// added has a witness that binds the source of some atom to one of its
// nodes, and every witness it broke binds one there (see the file comment of
// delta.go). An answer carried with CarryAlways goes along over a window
// that removed edges, for its caller to settle (SettleUnion) or drop
// (DropCarried); a verdict does not, since a removal can make it false. An
// answer the window cannot carry — that one, or one the delta log no longer
// covers — is dropped and counted (AtomStats.ResultDropped), and ok is false.
func (s *AtomStore) Carried(key any) (v any, frontier []int, removed, ok bool) {
	s.mu.Lock()
	a, ok := s.ans[key]
	s.mu.Unlock()
	if !ok || a.rev == s.atomFacts.rev {
		return nil, nil, false, false
	}
	w := s.window(a.rev)
	if w.info != nil {
		if removed = len(w.info.Removed) > 0; !removed || a.carry == CarryAlways {
			if w.frontier != nil {
				frontier = w.frontier.list
			}
			return a.v, frontier, removed, true
		}
	}
	s.DropCarried(key)
	return nil, nil, false, false
}

// DropCarried drops the stale answer filed under key, which its caller could
// not settle, and counts it (AtomStats.ResultDropped); an answer another
// reader has settled or filed since stays.
func (s *AtomStore) DropCarried(key any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.ans[key]; ok && have.rev != s.atomFacts.rev {
		s.dropAnswer(key, have)
		s.ctr.resultDropped.Add(1)
	}
}

// FileAnswer files v under key, charged for values values and carried as
// carry says, unless an answer of the store's revision is filed there
// already, and returns the answer filed under key. A stale one is replaced.
// It counts neither a hit nor a miss.
func (s *AtomStore) FileAnswer(key, v any, values int, carry Carry) any {
	v, _ = s.file(key, answer{v: v, carry: carry}, values)
	return v
}

// SettleAnswer is FileAnswer of v, the answer Carried returned under key
// brought up to the store's revision: it replaces the stale copy — never
// charged twice — counts as looked up again, and is counted
// (AtomStats.ResultCarried) unless another reader settled it first, whose
// answer it then returns.
func (s *AtomStore) SettleAnswer(key, v any, values int, carry Carry) any {
	v, filed := s.file(key, answer{v: v, carry: carry, reused: true}, values)
	if filed {
		s.ctr.resultCarried.Add(1)
	}
	return v
}

// file files a, charged for values values, unless an answer of the store's
// revision is filed under key, and returns the answer filed there and
// whether it is a.
func (s *AtomStore) file(key any, a answer, values int) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.ans[key]; ok {
		if have.rev == s.atomFacts.rev {
			return have.v, false
		}
		s.dropAnswer(key, have)
	}
	if s.ans == nil {
		s.ans = map[any]answer{}
	}
	a.rev = s.atomFacts.rev
	s.charge(key, a, answerOverhead+4*int64(values))
	return a.v, true
}

// ChargeAnswer charges values more values to the answer v, a pointer, if it
// is still the one filed under key: an answer that grows, like a ranked
// prefix, is accounted as it grows.
func (s *AtomStore) ChargeAnswer(key, v any, values int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.ans[key]; ok && a.v == v && a.rev == s.atomFacts.rev {
		s.charge(key, a, 4*int64(values))
	}
}

// CountAnswer counts one answer lookup, a hit or a miss.
func (s *AtomStore) CountAnswer(hit bool) {
	if hit {
		s.ctr.resultHits.Add(1)
	} else {
		s.ctr.resultMisses.Add(1)
	}
}

// support resolves the sources — with targets, the targets — of the relation
// of a, as a node bitset, by one engine.Support sweep that builds no pair. A
// sweep the budget cut returns engine.ErrCanceled.
func (s *AtomStore) support(a *Atom, targets bool, bud *engine.Budget) ([]uint64, error) {
	d := side(targets)
	return resolve(s, a, bud,
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
// forward, else its sources: from the direction's row table — the inversion
// of the other direction's when that one is complete (invert) — and the rows
// found in neither by one kernel call outside the lock (engine.Reach for one
// node, engine.ReachBatchEx for more), which are filed unless the budget cut
// it (cut: those rows may be missing nodes); a nil out only files them. Only
// cost-free rows are shared: under o.Levels or o.Weight every row is searched
// for the caller alone, with its costs, and filed nowhere.
func (s *AtomStore) rows(a *Atom, forward bool, nodes []int, o engine.ReachOpts, out []probeRow) (cut bool) {
	d, shared := side(!forward), !o.Levels && o.Weight == nil
	missing := nodes // the nodes to search, in the order of nodes
	if shared {
		s.mu.Lock()
		e, _ := s.current(a.key, o.Budget) // nil when the budget cut its settle: the search below is cut too
		if e != nil {
			s.invert(e, d)
		}
		if e != nil && e.rows[d].span != nil {
			missing = nil
			for i, u := range nodes {
				row, ok := e.rows[d].get(u)
				if !ok {
					if missing == nil {
						missing = make([]int, 0, len(nodes)-i)
					}
					missing = append(missing, u)
				} else if out != nil {
					out[i].nodes = row
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
	for i, k := 0, 0; out != nil && k < len(missing); i++ { // missing is a subsequence of nodes
		if nodes[i] == missing[k] {
			out[i].nodes = hits[k]
			if levs != nil {
				out[i].costs = levs[k]
			}
			k++
		}
	}
	if shared && !cut {
		s.mu.Lock()
		if e, before, ok := s.entry(a, o.Budget); ok {
			if t := &e.rows[d]; t.fill(s.db.NumNodes(), missing, hits) && e.sup[d] == nil {
				e.sup[d] = t.support()
			}
			s.grew(e, before)
		}
		s.mu.Unlock()
	}
	return cut
}

// adopt reports whether the memo reads a complete row table of the store in
// place, taking it and its support — one hit — if the rows are shared.
func (p *probeAtom) adopt(forward bool) bool {
	m, s, d := p.memo(forward), p.ev.store, side(!forward)
	if m.tab.span == nil && !p.ev.ranked {
		s.mu.Lock()
		if e, _ := s.current(p.atom.key, p.ev.bud); e != nil && (e.rows[d].complete() || s.invert(e, d)) {
			m.tab, m.sup = e.rows[d], e.sup[d]
			s.ctr.hits.Add(1)
		}
		s.mu.Unlock()
	}
	return m.tab.span != nil
}

// invert files, as e's complete table of side d, the inversion of its
// complete table of the other side, with its support, unless d's is complete
// already or the other one is not; it reports whether it filed one. A row of
// the inversion lists its nodes ascending, as a search does, so a join reads
// the rows a reversed-automaton sweep would have found, and no such sweep
// runs. The caller holds s.mu.
func (s *AtomStore) invert(e *atomEntry, d int) bool {
	src := &e.rows[1-d]
	if e.rows[d].complete() || !src.complete() {
		return false
	}
	n, before := len(src.span), e.size()
	at := make([]int, n+1) // at[v+1]: the rows holding v, then where v's row ends
	for u := range n {     // the filed rows only: a carried arena may hold dead ones
		row, _ := src.get(u)
		for _, v := range row {
			at[v+1]++
		}
	}
	for v := range n {
		at[v+1] += at[v]
	}
	t := rowTable{arena: make([]int, at[n]), tail: new(atomic.Int64), span: make([]uint64, n), filed: n}
	t.tail.Store(int64(at[n]))
	for v := range n {
		t.span[v] = 1 + (uint64(at[v])<<32 | uint64(at[v+1]-at[v]))
	}
	for u := range n { // u ascending: every row of t comes out sorted
		row, _ := src.get(u)
		for _, v := range row {
			t.arena[at[v]] = u
			at[v]++
		}
	}
	e.rows[d] = t
	if e.sup[d] == nil {
		e.sup[d] = t.support()
	}
	s.grew(e, before)
	return true
}

// PathExists reports whether some path of the database matches a — whether
// it has any pair — without computing its pairs: a support filed for it
// answers, else an ε-accepting label holds at every node, and anything else
// is one engine.Support sweep from every node at once that stops at its
// first accepted configuration. A budget that cancels before a hit yields (false,
// engine.ErrCanceled) — the answer is unknown, not no — and leaves no verdict.
func (s *AtomStore) PathExists(a *Atom, bud *engine.Budget) (bool, error) {
	if a.empty() || s.db.NumNodes() == 0 {
		return false, nil
	}
	return resolve(s, a, bud,
		func(e *atomEntry) (yes, known bool) {
			for _, sup := range e.sup {
				if sup != nil {
					return slices.ContainsFunc(sup, func(w uint64) bool { return w != 0 }), true
				}
			}
			return e.exists > 0, e.exists != 0
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

// Verdicts returns the stored existence verdicts, by label print and
// alphabet, settling every entry first.
func (s *AtomStore) Verdicts() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]bool{}
	for _, key := range slices.Collect(maps.Keys(s.m)) {
		if e, _ := s.current(key, nil); e != nil && e.exists != 0 {
			out[key] = e.exists > 0
		}
	}
	return out
}

// AtomKind counts the facts of one kind and the bytes accounted to them.
type AtomKind struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Complete int   `json:"complete,omitempty"` // rows only: the tables read in place
}

// AtomStats is a point-in-time snapshot of a store: what it holds, and the
// counters of its lineage — they carry over every revision move.
type AtomStats struct {
	Automata AtomKind `json:"automata"` // entries: atoms held; bytes: charged for their NFAs
	Supports AtomKind `json:"supports"`
	Verdicts AtomKind `json:"verdicts"`
	Rows     AtomKind `json:"rows"`    // entries: row tables, one per atom and direction
	Results  AtomKind `json:"results"` // entries: answers filed, carried ones included; bytes: charged for them
	Bytes    int64    `json:"bytes"`   // accounted in all: entry overheads, stale entries and their windows included
	Budget   int64    `json:"budget"`
	Stale    int      `json:"stale"` // entries not yet brought up to the revision: settled on their next lookup

	// Lookups of every kind of fact; a row request counts as a hit when no
	// kernel call answers any of its nodes. Asking for an atom is no lookup.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"` // whole-epoch drops on overflow

	// Answer lookups, as the layer that files the answers counts them, the
	// answers settled from a carried one (SettleAnswer), and the stale ones
	// a lookup could not carry and dropped (Carried).
	ResultHits    uint64 `json:"result_hits"`
	ResultMisses  uint64 `json:"result_misses"`
	ResultCarried uint64 `json:"result_carried"`
	ResultDropped uint64 `json:"result_dropped"`

	// Revision moves, by row of the matrix, and how the carried entries
	// settled — counted when each settles, not at the move: retained when
	// the window's labels miss the atom's, extended when its frontier's rows
	// were derived again.
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
		ResultHits: c.resultHits.Load(), ResultMisses: c.resultMisses.Load(), ResultCarried: c.resultCarried.Load(),
		ResultDropped: c.resultDropped.Load(), DeltaPasses: c.deltaPasses.Load(), Retains: c.retains.Load(), FullRebuilds: c.fullRebuilds.Load(),
		Retained: c.retained.Load(), Extended: c.extended.Load(), Kernel: c.kernel.Load()}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Bytes = s.bytes
	st.Automata.Entries = len(s.m)
	st.Results.Entries = len(s.ans)
	for _, a := range s.ans {
		st.Results.Bytes += a.bytes
	}
	for _, e := range s.m {
		if e.rev != s.atomFacts.rev {
			st.Stale++
		}
		st.Automata.Bytes += e.atom.size
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
			if e.rows[d].complete() {
				st.Rows.Complete++
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

package graph

// Snapshot isolation for the mutation path. DB.Snapshot() returns a
// revision-pinned, immutable read view of the database that shares storage
// with the live DB instead of copying it:
//
//   - names is an append-only slice, so the view pins a length-capped header;
//   - out/in adjacency is a fresh outer slice of pinned inner headers — a
//     later AddEdge appends beyond the pinned length (invisible here) and
//     removeEdge reallocates the suffix without touching the shared prefix;
//   - the name→id map is a chain of immutable overlay layers (nameLayer), so
//     a snapshot costs O(new names) instead of O(all names);
//   - the CSR Index, alphabet, statistics and partition caches are carried
//     over pre-warmed when current (the base-plus-overlay Index is exactly
//     the shared-storage mechanism: an extended successor shares the base
//     CSR arrays with every older pinned view).
//
// The contract mirrors the rest of the package: Snapshot() itself must be
// called from the mutator side (never concurrently with Node / AddEdge /
// ApplyDelta), but the returned view is immutable and safe for any number
// of concurrent readers, with no lock shared with the writer. Mutating a
// frozen view panics.

// nameLayer is one immutable layer of the name→id map: over holds the names
// interned in (parent.count, count]. Lookup walks the chain newest-first;
// names are unique and never removed, so shadowing cannot occur. Layers are
// folded into a fresh base map when the chain gets deep or the overlays
// rival the base, keeping lookups O(depth≤maxLayerDepth) and fold cost
// amortized O(1) per interned name.
type nameLayer struct {
	parent  *nameLayer
	over    map[string]int
	count   int // names covered by this layer and its ancestors
	depth   int
	overSum int // total overlay entries on the chain (fold trigger)
}

const maxLayerDepth = 32

func (l *nameLayer) lookup(name string) (int, bool) {
	for cur := l; cur != nil; cur = cur.parent {
		if id, ok := cur.over[name]; ok {
			return id, true
		}
	}
	return 0, false
}

// snapLayerFor returns an immutable layer covering exactly names[:n],
// extending (or folding) the live DB's cached chain.
func (d *DB) snapLayerFor(n int) *nameLayer {
	l := d.snapLayer
	if l != nil && l.count == n {
		return l
	}
	if l == nil || l.depth >= maxLayerDepth || (l.overSum+(n-l.count))*2 >= n {
		base := make(map[string]int, n)
		for id, name := range d.names[:n] {
			base[name] = id
		}
		l = &nameLayer{over: base, count: n, overSum: 0}
	} else {
		over := make(map[string]int, n-l.count)
		for id := l.count; id < n; id++ {
			over[d.names[id]] = id
		}
		l = &nameLayer{parent: l, over: over, count: n,
			depth: l.depth + 1, overSum: l.overSum + len(over)}
	}
	d.snapLayer = l
	return l
}

// Snapshot is a revision-pinned handle on an immutable read view of a DB.
type Snapshot struct {
	db  *DB
	rev uint64
}

// DB returns the frozen read view. It satisfies the full read API of *DB
// (Lookup/Name/Out/In/Index/Alphabet/Stats/DeltaSince/queries);
// mutators panic on it.
func (s *Snapshot) DB() *DB { return s.db }

// Revision returns the revision the snapshot pins.
func (s *Snapshot) Revision() uint64 { return s.rev }

// Snapshot returns a revision-pinned immutable view of the database. It
// must be called from the mutator side (same quiescence rule as Node /
// AddEdge / ApplyDelta); the returned view is then safe for concurrent
// readers while the live DB keeps mutating. Calling Snapshot twice without
// an intervening mutation returns the same handle; snapshotting a frozen
// view returns a handle on the view itself.
func (d *DB) Snapshot() *Snapshot {
	if d.frozen {
		return &Snapshot{db: d, rev: d.version}
	}
	if d.snapOnce && d.lastSnapRev == d.version && d.lastSnap != nil {
		return d.lastSnap
	}
	n := len(d.names)
	view := &DB{
		names:  d.names[:n:n],
		layer:  d.snapLayerFor(n),
		out:    pinAdj(d.out),
		in:     pinAdj(d.in),
		nEdges: d.nEdges,
		sigma:  cloneSigma(d.sigma),

		version: d.version,
		log:     deltaLog{start: d.log.start, recs: d.log.recs[:len(d.log.recs):len(d.log.recs)]},
		frozen:  true,
	}
	// Pre-warm the derived-state caches on the writer side so the first
	// reader on the new view pays nothing: Index/Alphabet are incrementally
	// maintained on the live DB and shared by pointer.
	view.idx, view.idxVersion = d.Index(), d.version
	view.alpha, view.alphaOK, view.alphaVersion = d.Alphabet(), true, d.version
	d.statsMu.Lock()
	if d.stats != nil && d.statsVersion == d.version {
		view.stats, view.statsVersion = d.stats, d.version
	}
	d.statsMu.Unlock()
	s := &Snapshot{db: view, rev: d.version}
	d.lastSnap, d.lastSnapRev, d.snapOnce = s, d.version, true
	return s
}

// Frozen reports whether d is a read-only snapshot view.
func (d *DB) Frozen() bool { return d.frozen }

// mutable panics when d is a frozen snapshot view. Every mutator calls it
// first, so a reader-side misuse fails loudly instead of corrupting the
// storage shared with other pinned revisions.
func (d *DB) mutable() {
	if d.frozen {
		panic("graph: mutation on a read-only snapshot view")
	}
}

// pinAdj copies the outer adjacency headers, pinning each inner slice at
// its current length: a later append on the live DB either writes beyond
// the pinned length in place (invisible through the pinned header) or
// relocates, and removals reallocate the suffix (spliceEdge's three-index
// append never mutates the shared prefix).
func pinAdj(adj [][]Edge) [][]Edge {
	out := make([][]Edge, len(adj))
	for i, es := range adj {
		out[i] = es[:len(es):len(es)]
	}
	return out
}

func cloneSigma(m map[rune]int) map[rune]int {
	out := make(map[rune]int, len(m))
	for r, n := range m {
		out[r] = n
	}
	return out
}

package ecrpq

import (
	"sync"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

// RelCache is a bounded cache of materialized EdgeRels keyed by the
// canonical print of the (classical) label plus the alphabet. It is the
// sharing point of the prepared-query session layer: one session owns one
// RelCache per database binding, so the relations derived by one evaluation
// are reused by every later — and every concurrent — evaluation on the same
// session. On overflow the whole epoch is dropped (entries are pure caches,
// so correctness is unaffected). The zero value is not usable; construct
// with NewRelCache. All methods are safe for concurrent use.
//
// Entries carry the metadata delta maintenance needs — the label's AST, its
// literal alphabet, ε-acceptance and the compile alphabet — so an
// insert-only database delta can retain, grow or frontier-extend each
// relation (ApplyDelta) instead of the historical whole-cache flush.
type RelCache struct {
	mu        sync.Mutex
	cap       int
	m         map[string]*relEntry
	hits      uint64
	misses    uint64
	evictions uint64
	retained  uint64
	extended  uint64
}

// relEntry is one cached relation plus the metadata classifying it against
// mutation deltas (see RelCache.ApplyDelta).
type relEntry struct {
	rel   *EdgeRel
	label xregex.Node
	sigma []rune

	syms      map[rune]bool // literal symbols of the label's language
	universal bool          // label may involve any symbol of Σ (negated class, variables)
	hasEps    bool          // ε ∈ L(label)
}

// DefaultRelCacheCap is the capacity used when NewRelCache receives n <= 0.
const DefaultRelCacheCap = 8192

// NewRelCache returns an empty relation cache holding at most n entries
// (n <= 0 selects DefaultRelCacheCap).
func NewRelCache(n int) *RelCache {
	if n <= 0 {
		n = DefaultRelCacheCap
	}
	return &RelCache{cap: n, m: map[string]*relEntry{}}
}

// For resolves the relation of label over db through the cache, computing
// and inserting it on a miss (see BuildRelation for the options). With
// o.Levels a cached level-less relation is upgraded in place on first ranked
// demand; callers that did not ask for levels may therefore be handed a
// relation that carries them, which is why joins take ranked-ness from their
// own options and never from the relation. A budget-truncated build returns
// engine.ErrCanceled and installs NOTHING: a partial relation in the shared
// cache would silently drop answers from every later query on the session.
// A weighted build has no cache identity and bypasses the cache.
func (c *RelCache) For(db *graph.DB, label xregex.Node, sigma []rune, o engine.ReachOpts) (*EdgeRel, error) {
	if o.Weight != nil {
		return BuildRelation(db, label, sigma, o)
	}
	key := xregex.String(label) + "\x00" + string(sigma)
	c.mu.Lock()
	if e, ok := c.m[key]; ok && (!o.Levels || e.rel.lev != nil) {
		c.hits++
		c.mu.Unlock()
		return e.rel, nil
	}
	c.misses++
	c.mu.Unlock()
	r, err := BuildRelation(db, label, sigma, o)
	if err != nil {
		return nil, err
	}
	e := newRelEntry(r, label, sigma)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[key]; ok && (!o.Levels || old.rel.lev != nil) {
		return old.rel, nil // raced with another worker
	}
	if len(c.m) >= c.cap {
		c.m = map[string]*relEntry{}
		c.evictions++
	}
	c.m[key] = e
	return r, nil
}

// newRelEntry derives the delta-classification metadata of a freshly
// computed relation.
func newRelEntry(r *EdgeRel, label xregex.Node, sigma []rune) *relEntry {
	e := &relEntry{rel: r, label: label, sigma: sigma}
	e.syms, e.universal = labelAlphabet(label)
	if _, empty := label.(*xregex.Empty); !empty {
		if ent, err := compiledFor(label, sigma); err == nil {
			e.hasEps = ent.shape().HasEps
		} else {
			e.universal = true // unknown shape: treat conservatively
		}
	}
	return e
}

// RelCacheStats is a point-in-time snapshot of a RelCache's counters.
type RelCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // whole-epoch drops on overflow
	Retained  uint64 // delta maintenance: entries kept (possibly grown for new nodes)
	Extended  uint64 // delta maintenance: entries frontier-recomputed
	Size      int    // live entries
	Cap       int
}

// Stats returns a snapshot of the cache counters.
func (c *RelCache) Stats() RelCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RelCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Retained: c.retained, Extended: c.extended, Size: len(c.m), Cap: c.cap}
}

// Fork returns an independent copy of the cache for a successor database
// snapshot: the entry map and its relEntry structs are cloned (so a
// subsequent ApplyDelta on the fork rewrites its own entries), while the
// EdgeRel values themselves — immutable once built — stay shared with the
// parent. Readers of the parent cache therefore keep their pinned
// relations untouched. Counters carry over: a fork continues the session
// lineage's telemetry rather than restarting it.
func (c *RelCache) Fork() *RelCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &RelCache{cap: c.cap, m: make(map[string]*relEntry, len(c.m)),
		hits: c.hits, misses: c.misses, evictions: c.evictions,
		retained: c.retained, extended: c.extended}
	for k, e := range c.m {
		ce := *e
		n.m[k] = &ce
	}
	return n
}

// Reset drops every entry (the counters are kept); used by session
// invalidation after a database mutation.
func (c *RelCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[string]*relEntry{}
}

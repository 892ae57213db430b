package xregex

import (
	"sync"

	"cxrpq/internal/automata"
)

// This file backs Matches with a process-wide bounded cache of compiled
// classical expressions and their subset-construction caches. Membership
// tests are the innermost primitive of the Lemma 10 instantiation machinery
// (CutFailedDefs runs one per definition per variable mapping) and of the
// Theorem 6 candidate filters, and the same small expressions recur across
// the exponentially many mappings of a bounded enumeration — compiling a
// fresh Thompson NFA per call dominated those paths. Entries are keyed by
// the canonical print plus the alphabet, so the determinization work warmed
// by one caller is shared by every concurrent one.

// defaultMatchCacheCap bounds the process-wide cache; on overflow the whole
// epoch is dropped (cheap, and correct because entries are pure caches).
const defaultMatchCacheCap = 4096

// matchCache is a compiled-expression cache of a fixed capacity.
type matchCache struct {
	mu                      sync.Mutex
	cap                     int
	m                       map[string]*automata.SubsetCache
	hits, misses, evictions uint64
}

func newMatchCache(cap int) *matchCache {
	return &matchCache{cap: cap, m: map[string]*automata.SubsetCache{}}
}

// sharedMatches is the process-wide instance behind Matches and SubsetFor.
var sharedMatches = newMatchCache(defaultMatchCacheCap)

// MatchCacheStats is a snapshot of the process-wide match-cache counters.
type MatchCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // whole-epoch drops on overflow
	Size      int
	Cap       int
}

// MatchCacheInfo returns the current counters of the process-wide compiled
// cache behind Matches.
func MatchCacheInfo() MatchCacheStats { return sharedMatches.info() }

func (mc *matchCache) info() MatchCacheStats {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return MatchCacheStats{Hits: mc.hits, Misses: mc.misses, Evictions: mc.evictions, Size: len(mc.m), Cap: mc.cap}
}

// SubsetFor returns the shared determinization cache for the classical
// expression n over sigma, compiling it on first use. Matches runs one word
// through it; callers that test many words against one expression step it
// themselves (Start/Step/Final), sharing the prefixes.
func SubsetFor(n Node, sigma []rune) (*automata.SubsetCache, error) {
	return sharedMatches.subsetFor(n, sigma)
}

func (mc *matchCache) subsetFor(n Node, sigma []rune) (*automata.SubsetCache, error) {
	key := String(n) + "\x00" + string(sigma)
	mc.mu.Lock()
	if c, ok := mc.m[key]; ok {
		mc.hits++
		mc.mu.Unlock()
		return c, nil
	}
	mc.misses++
	mc.mu.Unlock()

	m, err := Compile(n, sigma)
	if err != nil {
		return nil, err
	}
	c := automata.NewSubsetCache(m)
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if old, ok := mc.m[key]; ok { // raced with another compiler
		return old, nil
	}
	if len(mc.m) >= mc.cap {
		mc.m = map[string]*automata.SubsetCache{}
		mc.evictions++
	}
	mc.m[key] = c
	return c, nil
}

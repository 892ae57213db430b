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

var (
	matchMu        sync.Mutex
	matchCacheCap  = defaultMatchCacheCap
	matchCache     = map[string]*automata.SubsetCache{}
	matchHits      uint64
	matchMisses    uint64
	matchEvictions uint64
)

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
func MatchCacheInfo() MatchCacheStats {
	matchMu.Lock()
	defer matchMu.Unlock()
	return MatchCacheStats{Hits: matchHits, Misses: matchMisses,
		Evictions: matchEvictions, Size: len(matchCache), Cap: matchCacheCap}
}

// SetMatchCacheCap sets the capacity of the process-wide compiled cache and
// returns the previous value (n <= 0 restores the default). Shrinking below
// the live size drops the whole epoch. Exposed for tests exercising the
// eviction path and for tuning long-running servers.
func SetMatchCacheCap(n int) int {
	matchMu.Lock()
	defer matchMu.Unlock()
	prev := matchCacheCap
	if n <= 0 {
		n = defaultMatchCacheCap
	}
	matchCacheCap = n
	if len(matchCache) >= matchCacheCap {
		matchCache = map[string]*automata.SubsetCache{}
		matchEvictions++
	}
	return prev
}

// SubsetFor returns the shared determinization cache for the classical
// expression n over sigma, compiling it on first use. Matches runs one word
// through it; callers that test many words against one expression step it
// themselves (Start/Step/Final), sharing the prefixes.
func SubsetFor(n Node, sigma []rune) (*automata.SubsetCache, error) {
	key := String(n) + "\x00" + string(sigma)
	matchMu.Lock()
	if c, ok := matchCache[key]; ok {
		matchHits++
		matchMu.Unlock()
		return c, nil
	}
	matchMisses++
	matchMu.Unlock()

	m, err := Compile(n, sigma)
	if err != nil {
		return nil, err
	}
	c := automata.NewSubsetCache(m)
	matchMu.Lock()
	defer matchMu.Unlock()
	if old, ok := matchCache[key]; ok { // raced with another compiler
		return old, nil
	}
	if len(matchCache) >= matchCacheCap {
		matchCache = map[string]*automata.SubsetCache{}
		matchEvictions++
	}
	matchCache[key] = c
	return c, nil
}

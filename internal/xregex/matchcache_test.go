package xregex

// Eviction edge cases for the compiled cache behind Matches, on private
// instances built at the capacity each case needs: filling past capacity
// must drop the epoch (counted), keep answering correctly, and the hit/miss
// counters must move as specified.

import (
	"strings"
	"testing"
)

// matchIn is Matches through the cache c instead of the process-wide one.
func matchIn(t *testing.T, c *matchCache, n Node, w string, sigma []rune) bool {
	t.Helper()
	sc, err := c.subsetFor(n, sigma)
	if err != nil {
		t.Fatalf("subsetFor(%s): %v", String(n), err)
	}
	word := make([]int32, 0, len(w))
	for _, r := range w {
		word = append(word, int32(r))
	}
	return sc.Accepts(word)
}

func TestMatchCacheEvictionCorrectness(t *testing.T) {
	c := newMatchCache(4)
	sigma := []rune("ab")

	// 20 distinct expressions against a cap of 4: at least 4 epoch drops.
	words := make([]string, 20)
	for i := range words {
		words[i] = strings.Repeat("a", i%5+1) + strings.Repeat("b", i/5)
	}
	for _, w := range words {
		if !matchIn(t, c, Word(w), w, sigma) {
			t.Fatalf("%q does not match itself", w)
		}
		if matchIn(t, c, Word(w), w+"a", sigma) {
			t.Fatalf("%q matches %q", w, w+"a")
		}
	}
	mid := c.info()
	if mid.Evictions < 4 {
		t.Fatalf("expected ≥4 epoch drops past capacity, got %+v", mid)
	}
	if mid.Misses != 20 || mid.Hits != 20 {
		t.Fatalf("20 distinct expressions asked twice each: %+v, want 20 misses and 20 hits", mid)
	}
	if mid.Size > mid.Cap || mid.Cap != 4 {
		t.Fatalf("live size %d, cap %d, want at most the 4 it was built with", mid.Size, mid.Cap)
	}

	// Re-querying expressions evicted earlier must still answer correctly
	// (recompiled on a fresh miss).
	for _, w := range words[:4] {
		if !matchIn(t, c, Word(w), w, sigma) {
			t.Fatalf("post-eviction: %q does not match itself", w)
		}
	}

	// Repeated queries inside one epoch must hit: the second lookup of an
	// expression just inserted cannot miss.
	h0 := c.info().Hits
	for i := 0; i < 3; i++ {
		if !matchIn(t, c, Word("abab"), "abab", sigma) {
			t.Fatal("abab does not match itself")
		}
	}
	if h2 := c.info().Hits; h2 < h0+2 {
		t.Fatalf("expected ≥2 hits from repeated queries, got %d", h2-h0)
	}
}

// TestMatchCacheCapBoundsLiveSize: the same five expressions fit a cache of
// 64 without a drop and cycle a cache of 2 through whole-epoch drops, and
// both keep answering correctly.
func TestMatchCacheCapBoundsLiveSize(t *testing.T) {
	sigma := []rune("ab")
	words := []string{"a", "b", "ab", "ba", "aa"}
	for _, tc := range []struct{ cap, size, evictions int }{{64, 5, 0}, {2, 1, 2}} {
		c := newMatchCache(tc.cap)
		for _, w := range words {
			if !matchIn(t, c, Word(w), w, sigma) {
				t.Fatalf("cap %d: %q does not match itself", tc.cap, w)
			}
		}
		if got := c.info(); got.Size != tc.size || int(got.Evictions) != tc.evictions {
			t.Fatalf("cap %d: %+v, want size %d after %d drops", tc.cap, got, tc.size, tc.evictions)
		}
		if !matchIn(t, c, Word("ab"), "ab", sigma) {
			t.Fatalf("cap %d: ab does not match itself after the fill", tc.cap)
		}
	}
}

// TestMatchCacheInfoShape: the process-wide instance reports the default
// capacity and moves its counters on a lookup (cxrpq-serve /stats reads it).
func TestMatchCacheInfoShape(t *testing.T) {
	before := MatchCacheInfo()
	if before.Cap != defaultMatchCacheCap {
		t.Fatalf("process-wide cap = %d, want %d", before.Cap, defaultMatchCacheCap)
	}
	if ok, err := Matches(Word("ab"), "ab", []rune("ab")); err != nil || !ok {
		t.Fatalf("Matches(ab, ab) = %v, %v", ok, err)
	}
	if after := MatchCacheInfo(); after.Hits+after.Misses <= before.Hits+before.Misses {
		t.Fatalf("a lookup moved no counter: before %+v, after %+v", before, after)
	}
}

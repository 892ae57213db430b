package graph

import (
	"math/rand"
	"testing"
)

// hasPathRef is the map-based frontier implementation, kept as the
// behavioral reference for the bitset rewrite.
func hasPathRef(d *DB, u int, word string, v int) bool {
	cur := map[int]bool{u: true}
	for _, r := range word {
		next := map[int]bool{}
		for p := range cur {
			for _, e := range d.Out(p) {
				if e.Label == r {
					next[e.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return cur[v]
}

func TestHasPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abc")
	for trial := 0; trial < 30; trial++ {
		d := New()
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			d.AddNode()
		}
		for e := 0; e < 3*n; e++ {
			d.AddEdge(rng.Intn(n), alphabet[rng.Intn(len(alphabet))], rng.Intn(n))
		}
		words := []string{"", "a", "b", "c", "ab", "ba", "abc", "aa", "cab", "abca", "d", "ad"}
		for _, w := range words {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					got := d.HasPath(u, w, v)
					want := hasPathRef(d, u, w, v)
					if got != want {
						t.Fatalf("trial %d: HasPath(%d, %q, %d) = %v, want %v", trial, u, w, v, got, want)
					}
				}
			}
		}
	}
}

func TestHasPathOutOfRange(t *testing.T) {
	d := MustParse("u a v")
	if d.HasPath(-1, "a", 0) || d.HasPath(0, "a", 99) {
		t.Fatal("out-of-range endpoints must not match")
	}
}

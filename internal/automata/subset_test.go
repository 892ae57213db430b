package automata

import (
	"sync"
	"testing"
)

// abStarNFA builds an NFA for a(b|a)*b with an ε-transition thrown in.
func abStarNFA() *NFA {
	m := New(4)
	m.AddTr(0, 'a', 1)
	m.AddTr(1, Epsilon, 2)
	m.AddTr(2, 'b', 2)
	m.AddTr(2, 'a', 2)
	m.AddTr(2, 'b', 3)
	m.SetFinal(3, true)
	return m
}

// cacheAccepts runs word through the cache the way the product engines do:
// one Step per label from Start, then Final.
func cacheAccepts(c *SubsetCache, word []int32) bool {
	id := c.Start()
	for _, l := range word {
		if id = c.Step(id, l); id == Dead {
			return false
		}
	}
	return c.Final(id)
}

func TestSubsetCacheAgreesWithNFA(t *testing.T) {
	m := abStarNFA()
	c := NewSubsetCache(m)
	words := [][]int32{
		{}, {'a'}, {'b'}, {'a', 'b'}, {'a', 'a', 'b'}, {'a', 'b', 'b'},
		{'b', 'a'}, {'a', 'a', 'a'}, {'a', 'b', 'a', 'b'},
	}
	for _, w := range words {
		if got, want := cacheAccepts(c, w), m.Accepts(w); got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", w, got, want)
		}
	}
}

func TestSubsetCacheInternsSets(t *testing.T) {
	m := abStarNFA()
	c := NewSubsetCache(m)
	id1 := c.Step(c.Start(), 'a')
	id2 := c.Step(c.Start(), 'a')
	if id1 != id2 {
		t.Fatalf("same transition returned distinct ids %d, %d", id1, id2)
	}
	if id1 == Dead {
		t.Fatal("live transition reported Dead")
	}
	if c.Step(c.Start(), 'b') != Dead {
		t.Fatal("dead transition not reported Dead")
	}
	if c.Final(c.Start()) {
		t.Fatal("start set should not be final")
	}
	fin := c.Step(id1, 'b')
	if fin == Dead || !c.Final(fin) {
		t.Fatalf("ab should reach a final set, got id %d", fin)
	}
	if id1 == c.Start() {
		t.Fatalf("a leads to the start set %d, want the ε-closed {1,2}", id1)
	}
}

func TestSubsetCacheConcurrentStep(t *testing.T) {
	m := abStarNFA()
	c := NewSubsetCache(m)
	words := [][]int32{
		{'a', 'b'}, {'a', 'a', 'b'}, {'a', 'b', 'b'}, {'b'}, {'a'},
		{'a', 'b', 'a', 'b'}, {'a', 'a', 'a', 'b'},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for _, w := range words {
					if got, want := cacheAccepts(c, w), m.Accepts(w); got != want {
						errs <- "concurrent Accepts disagrees with NFA"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

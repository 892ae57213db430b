package automata

import (
	"encoding/binary"
	"sync"
)

// Dead is the sentinel returned by SubsetCache.Step when the transition
// leads to the empty state set (the run dies).
const Dead int32 = -1

// SubsetCache performs the subset construction of an NFA on the fly,
// interning every reachable state set as a dense int32 id and memoizing the
// (set id, label) → set id transition table. It is the determinization
// substrate of the product engines: hot loops operate on int32 ids and
// never touch string keys or StateSet slices.
//
// A SubsetCache is safe for concurrent use, so compiled automata (and their
// accumulated determinization work) can be shared across goroutines and
// across evaluations of the same query parts.
type SubsetCache struct {
	mu    sync.RWMutex
	m     *NFA
	sets  []StateSet        // id → interned set
	ids   map[string]int32  // canonical set key → id
	final []bool            // id → set contains a final state
	trans []map[int32]int32 // id → label → id (Dead for empty)
	start int32
}

// NewSubsetCache returns a cache for m, with the ε-closure of the start
// state interned as id Start().
func NewSubsetCache(m *NFA) *SubsetCache {
	c := &SubsetCache{m: m, ids: map[string]int32{}}
	c.start = c.intern(m.EpsClosure(m.Start()))
	return c
}

// Start returns the id of the initial state set.
func (c *SubsetCache) Start() int32 { return c.start }

// Final reports whether set id contains a final NFA state.
func (c *SubsetCache) Final(id int32) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.final[id]
}

// Step returns the id of the set reached from id by one transition labelled
// l (ε-closed), or Dead if the run dies. Results are memoized.
func (c *SubsetCache) Step(id int32, l int32) int32 {
	c.mu.RLock()
	if t, ok := c.trans[id][l]; ok {
		c.mu.RUnlock()
		return t
	}
	set := c.sets[id]
	c.mu.RUnlock()

	next := c.m.Step(set, l)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.trans[id][l]; ok { // raced with another writer
		return t
	}
	nid := Dead
	if len(next) > 0 {
		nid = c.internLocked(next)
	}
	c.trans[id][l] = nid
	return nid
}

func (c *SubsetCache) intern(s StateSet) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.internLocked(s)
}

func (c *SubsetCache) internLocked(s StateSet) int32 {
	k := setKey(s)
	if id, ok := c.ids[k]; ok {
		return id
	}
	id := int32(len(c.sets))
	c.ids[k] = id
	c.sets = append(c.sets, s)
	c.final = append(c.final, c.m.ContainsFinal(s))
	c.trans = append(c.trans, make(map[int32]int32, 4))
	return id
}

// setKey encodes a sorted state set as a compact binary string key.
func setKey(s StateSet) string {
	buf := make([]byte, 4*len(s))
	for i, p := range s {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return string(buf)
}

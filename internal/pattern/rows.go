package pattern

import (
	"slices"
	"sync"
)

// Answers are rows: fixed-arity node-id tuples back to back in one []int32
// slab, from the executor's output slots to the response encoder. RowTable
// finds a row in a slab, Rows is a window of one, TupleSet the set of them.

// RowTable is an open-addressed index over the fixed-width rows of an
// []int32 slab that its user owns: a slot holds 1 + a row number, 0 is
// empty, and a key is found by comparing it with the rows themselves, so the
// table stores no keys and hashes no strings. used lists the occupied slots,
// which is what a Reset clears.
type RowTable struct {
	slots []int32
	used  []int32
}

func hashRow(key []int32) uint64 {
	h := uint64(len(key))
	for _, x := range key {
		h = (h ^ uint64(uint32(x))) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// Find looks key up among the width-w rows of slab the table indexes. It
// returns the row, or -1 and the slot at which Set would insert it; the slot
// is valid until the next Set.
func (t *RowTable) Find(slab []int32, w int, key []int32) (row int32, slot int) {
	if t.slots == nil {
		t.slots = make([]int32, 16)
	}
	mask := len(t.slots) - 1
search:
	for i := int(hashRow(key)) & mask; ; i = (i + 1) & mask {
		r := int(t.slots[i])
		if r == 0 {
			return -1, i
		}
		for j, x := range slab[(r-1)*w : r*w] {
			if x != key[j] {
				continue search
			}
		}
		return int32(r - 1), i
	}
}

// Set points the slot Find returned at row, which must be in the slab by
// now, and keeps the table at most half full.
func (t *RowTable) Set(slab []int32, w, slot int, row int32) {
	if t.slots[slot] == 0 {
		t.used = append(t.used, int32(slot))
	}
	t.slots[slot] = row + 1
	if 2*len(t.used) <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]int32, 2*len(old))
	mask := len(t.slots) - 1
	for k, o := range t.used {
		r := int(old[o])
		i := int(hashRow(slab[(r-1)*w:r*w])) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i], t.used[k] = int32(r), int32(i)
	}
}

// Reset empties the table, keeping its storage.
func (t *RowTable) Reset() {
	for _, i := range t.used {
		t.slots[i] = 0
	}
	t.used = t.used[:0]
}

// Rows is a read-only window of N rows of Arity ids each, back to back in Data
// (N is explicit because a Boolean query's one answer has arity 0). Costs, when
// non-nil, runs parallel: the witness cost of each row of a ranked stream.
type Rows struct {
	Arity, N int
	Data     []int32
	Costs    []int32
}

// Row returns the i-th row.
func (r Rows) Row(i int) []int32 { return r.Data[i*r.Arity : (i+1)*r.Arity] }

// Slice returns the window of rows [i, j), sharing r's storage.
func (r Rows) Slice(i, j int) Rows {
	out := Rows{Arity: r.Arity, N: j - i, Data: r.Data[i*r.Arity : j*r.Arity]}
	if r.Costs != nil {
		out.Costs = r.Costs[i:j]
	}
	return out
}

// Tuples returns the rows as tuples carved from one backing array (nil for no
// rows), for callers that speak Tuple.
func (r Rows) Tuples() []Tuple {
	if r.N == 0 {
		return nil
	}
	ids := make([]int, len(r.Data))
	for i, v := range r.Data {
		ids[i] = int(v)
	}
	out := make([]Tuple, r.N)
	for i := range out {
		out[i] = ids[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity]
	}
	return out
}

// TupleSet is a set of output tuples of one arity, fixed by the first tuple
// added: the rows in insertion order in one slab, found through a RowTable.
// Readers may share a set; Add, AddRow and AddAll need exclusive access.
type TupleSet struct {
	rows Rows
	tab  RowTable

	// The lexicographic order: computed by the first SortedRows after the last
	// insertion, shared by every later one.
	sortMu sync.Mutex
	sorted Rows
}

// NewTupleSet returns an empty tuple set.
func NewTupleSet() *TupleSet { return &TupleSet{} }

// Insert adds the row if not present (copying it). It returns the row's
// position in insertion order and whether it was new.
func (s *TupleSet) Insert(row []int32) (at int, added bool) {
	r := &s.rows
	if r.N == 0 {
		r.Arity = len(row)
	} else if len(row) != r.Arity {
		panic("pattern: TupleSet rows must have one arity")
	}
	old, slot := s.tab.Find(r.Data, r.Arity, row)
	if old >= 0 {
		return int(old), false
	}
	r.Data = append(r.Data, row...)
	s.tab.Set(r.Data, r.Arity, slot, int32(r.N))
	r.N++
	return r.N - 1, true
}

// AddRow is Insert reporting only whether the row was new.
func (s *TupleSet) AddRow(row []int32) bool {
	_, added := s.Insert(row)
	return added
}

// row32 narrows a tuple to a row, on the stack for the arities queries have.
func row32(t Tuple, buf *[8]int32) []int32 {
	row := buf[:0]
	for _, v := range t {
		row = append(row, int32(v))
	}
	return row
}

// Add inserts t if not present; it reports whether t was new.
func (s *TupleSet) Add(t Tuple) bool {
	var buf [8]int32
	return s.AddRow(row32(t, &buf))
}

// AddAll inserts every row of o, in o's insertion order.
func (s *TupleSet) AddAll(o *TupleSet) {
	for i := 0; i < o.rows.N; i++ {
		s.AddRow(o.rows.Row(i))
	}
}

// has reports membership of a row; it writes nothing, so readers may share.
func (s *TupleSet) has(row []int32) bool {
	if s.rows.N == 0 || len(row) != s.rows.Arity {
		return false
	}
	at, _ := s.tab.Find(s.rows.Data, s.rows.Arity, row)
	return at >= 0
}

// Contains reports membership.
func (s *TupleSet) Contains(t Tuple) bool {
	var buf [8]int32
	return s.has(row32(t, &buf))
}

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return s.rows.N }

// Rows returns the set's rows in insertion order. The view shares the set's
// storage: it is valid until the next insertion.
func (s *TupleSet) Rows() Rows { return s.rows }

// SortedRows returns the set's rows in lexicographic order, computed once per
// content by whoever asks first; a window of the view is a page of the answer.
func (s *TupleSet) SortedRows() Rows {
	s.sortMu.Lock()
	defer s.sortMu.Unlock()
	if in := s.rows; s.sorted.N != in.N {
		s.sorted = Rows{Arity: in.Arity, N: in.N, Data: make([]int32, 0, len(in.Data))}
		for _, i := range sortedPerm(in) {
			s.sorted.Data = append(s.sorted.Data, in.Row(int(i))...)
		}
	}
	return s.sorted
}

// radixMinRows is the row count below which sortedPerm compares: the counting
// passes cost 256 buckets each whatever the input.
const radixMinRows = 64

// sortedPerm returns the permutation that puts the rows of in into
// lexicographic order. Rows are tuples of node ids, so from radixMinRows rows
// on it is an LSD radix sort: for each column from last to first, one stable
// 256-bucket counting pass per significant byte of the column's maximum (two
// per column on a graph of under 65 536 nodes). A negative value — no node id
// — sends the whole input to the comparison sort.
func sortedPerm(in Rows) []int32 {
	perm := make([]int32, in.N)
	for i := range perm {
		perm[i] = int32(i)
	}
	maxs, radix := make([]int32, in.Arity), in.N >= radixMinRows && in.Arity > 0
	for i := 0; radix && i < len(in.Data); i += in.Arity {
		for c, v := range in.Data[i : i+in.Arity] {
			maxs[c] = max(maxs[c], v)
			radix = radix && v >= 0
		}
	}
	if !radix {
		slices.SortFunc(perm, func(a, b int32) int { return slices.Compare(in.Row(int(a)), in.Row(int(b))) })
		return perm
	}
	tmp := make([]int32, in.N)
	for c := in.Arity - 1; c >= 0; c-- {
		for shift := 0; maxs[c]>>shift != 0; shift += 8 {
			var at [256]int
			for _, i := range perm {
				at[in.Data[int(i)*in.Arity+c]>>shift&255]++
			}
			sum := 0
			for b, n := range at {
				at[b], sum = sum, sum+n
			}
			for _, i := range perm {
				b := in.Data[int(i)*in.Arity+c] >> shift & 255
				tmp[at[b]] = i
				at[b]++
			}
			perm, tmp = tmp, perm
		}
	}
	return perm
}

// All returns the tuples in insertion order.
func (s *TupleSet) All() []Tuple { return s.rows.Tuples() }

// Sorted returns the tuples in lexicographic order.
func (s *TupleSet) Sorted() []Tuple { return s.SortedRows().Tuples() }

// Equal reports whether two tuple sets contain the same tuples.
func (s *TupleSet) Equal(o *TupleSet) bool {
	if s.rows.N != o.rows.N {
		return false
	}
	for i := 0; i < s.rows.N; i++ {
		if !o.has(s.rows.Row(i)) {
			return false
		}
	}
	return true
}

package pattern

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Answers are rows: fixed-arity node-id tuples back to back in one []int32
// slab, from the executor's output slots to the response encoder. RowTable
// finds a row in a slab, Rows is a window of one, TupleSet the set of them:
// hashed row by row where a consumer must know at once whether a row is new,
// appended and settled where an answer is materialised. A join emits its rows
// grouped by their first column, in the order its outermost scan walks the
// nodes, so an appended set settles each run of one leading value on its own,
// in place, when the next begins; the first row out of that order hands the
// runs to a bag that settles by sorting whole.

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
// added: the rows back to back in one slab. Insert and the Add methods dedup
// through a RowTable as they go (online dedup); Append copies a row in with no
// lookup and Settle sorts and dedups the bag, leaving the rows in sorted
// order. Readers may share a hashed or a settled set; all else needs
// exclusive access, and only Rows may read a bag.
type TupleSet struct {
	rows                  Rows
	tab                   RowTable // over rows while the set is neither a bag nor settled
	bag, settled, hashing bool     // hashing: Append inserts, the bag was mostly duplicates
	kept                  int      // a strictly increasing prefix: the last settle's rows and in-order appends since
	// run is the first row of the current run while every row so far was
	// appended in nondecreasing order of its first column: the rows before
	// it lead with smaller values, those from it on with one value, and
	// kept >= run. It is -1 once a row broke that order or a set was hashed.
	run  int
	keys []uint64 // the sort keys of the runs, reused from one to the next until Settle

	// The lexicographic order of a hashed set: computed by the first
	// SortedRows after the last insertion, shared by every later one.
	sortMu sync.Mutex
	sorted Rows
}

// settleFloor is the bag size below which Append never settles on its own.
const settleFloor = 1024

// NewTupleSet returns an empty tuple set.
func NewTupleSet() *TupleSet { return &TupleSet{} }

// fix checks row against the set's arity, fixing it on the first row.
func (s *TupleSet) fix(row []int32) {
	if s.rows.N == 0 {
		s.rows.Arity = len(row)
	} else if len(row) != s.rows.Arity {
		panic("pattern: TupleSet rows must have one arity")
	}
}

// Insert adds the row if not present (copying it). It returns the row's
// position in insertion order and whether it was new. A bag or a settled set
// is first settled and indexed; its rows keep their order.
func (s *TupleSet) Insert(row []int32) (at int, added bool) {
	s.fix(row)
	r := &s.rows
	if s.bag || s.settled {
		s.Settle()
		for i := 0; i < r.N; i++ {
			_, slot := s.tab.Find(r.Data, r.Arity, r.Row(i))
			s.tab.Set(r.Data, r.Arity, slot, int32(i))
		}
		s.settled = false
	}
	s.run = -1
	old, slot := s.tab.Find(r.Data, r.Arity, row)
	if old >= 0 {
		return int(old), false
	}
	r.Data = append(r.Data, row...)
	s.tab.Set(r.Data, r.Arity, slot, int32(r.N))
	r.N++
	return r.N - 1, true
}

// Append adds the row (copying it) with no lookup: the set is a bag until
// Settle. While rows arrive in nondecreasing order of their first column, a
// row greater than every row before it extends the kept prefix as it comes,
// a row that starts a new leading value first settles the run before it, in
// place, and the first row that leads with a smaller value ends that mode:
// the runs settled so far become the kept prefix of a bag that settles by
// one sort. Append settles the current run, or the bag, whenever it has
// doubled since the last settle (from settleFloor rows), so the set holds at
// most about twice its distinct rows. A settle that finds half the rows
// appended since the last one duplicates makes Append insert from then on: a
// lookup then costs less than a sort.
func (s *TupleSet) Append(row []int32) {
	if s.hashing {
		s.Insert(row)
		return
	}
	s.fix(row)
	r := &s.rows
	grows := s.run >= 0 && r.N == 0 // row is greater than every row before it
	if s.run >= 0 && r.N > 0 && r.Arity > 0 {
		switch last := r.Data[(r.N-1)*r.Arity : r.N*r.Arity]; {
		case row[0] > last[0]:
			s.settleRun()
			s.run, grows = r.N, true
		case row[0] < last[0]:
			s.settleRun()
			s.run = -1
		default:
			grows = s.kept == r.N && less(last[1:], row[1:])
		}
	}
	s.bag, s.settled = true, false
	r.Data = append(r.Data, row...)
	if r.N++; grows {
		s.kept = r.N
	}
	if from := max(s.run, 0); r.N-from >= max(settleFloor, 2*(s.kept-from)) {
		bag, kept := r.N, s.kept
		s.Settle()
		s.hashing = 2*(r.N-kept) <= bag-kept
	}
}

// less reports whether the row a sorts before b, of its width.
func less(a, b []int32) bool {
	for i, x := range a {
		if x != b[i] {
			return x < b[i]
		}
	}
	return false
}

// Settle makes the set's rows strictly increasing — its sorted view, each row
// once — and drops the table of a hashed set.
func (s *TupleSet) Settle() {
	if s.settled {
		return
	}
	if s.run >= 0 {
		s.settleRun()
	} else {
		s.rows = settle(s.rows, s.kept, false, true, nil)
	}
	s.tab, s.sorted, s.keys = RowTable{}, Rows{}, nil
	s.bag, s.settled, s.kept = false, true, s.rows.N
}

// settleRun sorts and dedups the rows of the current run, [run, N), in place
// in the slab. They share their first column, so only the others are sort
// keys, and the rows before the run are smaller than any of them.
func (s *TupleSet) settleRun() {
	r := &s.rows
	if r.N == s.kept {
		return
	}
	out := settle(r.Slice(s.run, r.N), s.kept-s.run, true, true, &s.keys)
	copy(r.Data[s.run*r.Arity:], out.Data) // onto itself unless settle wrote a new slab
	r.N = s.run + out.N
	r.Data = r.Data[:r.N*r.Arity]
	s.kept = r.N
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

// AddAll inserts every row of o, in o's order.
func (s *TupleSet) AddAll(o *TupleSet) {
	for i := 0; i < o.rows.N; i++ {
		s.AddRow(o.rows.Row(i))
	}
}

// has reports membership of a row; it writes nothing, so readers may share.
func (s *TupleSet) has(row []int32) bool {
	r := s.rows
	switch {
	case r.N == 0 || len(row) != r.Arity:
		return false
	case s.bag:
		panic("pattern: TupleSet read before Settle")
	case s.settled:
		_, found := sort.Find(r.N, func(i int) int { return slices.Compare(row, r.Row(i)) })
		return found
	}
	at, _ := s.tab.Find(r.Data, r.Arity, row)
	return at >= 0
}

// Contains reports membership.
func (s *TupleSet) Contains(t Tuple) bool {
	var buf [8]int32
	return s.has(row32(t, &buf))
}

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return s.rows.N }

// Rows returns the set's rows: in insertion order, sorted once settled. The
// view shares the set's storage: it is valid until the next insertion.
func (s *TupleSet) Rows() Rows { return s.rows }

// SortedRows returns the set's rows in lexicographic order: a settled set's
// own rows, else a slab computed once per content by whoever asks first, valid
// until the next Append or Settle. A window of it is a page of the answer.
func (s *TupleSet) SortedRows() Rows {
	if s.settled {
		return s.rows
	}
	s.sortMu.Lock()
	defer s.sortMu.Unlock()
	if in := s.rows; s.sorted.N != in.N {
		s.sorted = settle(in, 0, false, false, nil)
	}
	return s.sorted
}

// radixMinRows is the row count below which settle and sortedPerm compare:
// the counting passes cost 256 buckets each whatever the input.
const radixMinRows = 64

// settle returns the distinct rows of in, whose first sorted are strictly
// increasing, in order: in itself if they are, else written back into in's
// slab when inPlace, or into a new one. With lead, for a settle in place,
// every row of in has one first column, which is then no part of a sort key.
// Rows with no negative value whose key columns fit one uint64 at the bit
// width of the largest value (13 bits on a 5 000-node graph: four columns)
// are sorted as such keys — on the stack below radixMinRows rows, else in
// *scratch when it is large enough, which is left holding the largest keys;
// the rest, past the prefix, by sortedPerm, then merged with the prefix into
// a new slab.
func settle(in Rows, sorted int, lead, inPlace bool, scratch *[]uint64) Rows {
	i := max(sorted, 1)
	for i < in.N && less(in.Row(i-1), in.Row(i)) {
		i++
	}
	if i >= in.N {
		return in
	}
	from := 0 // the first key column
	if lead && in.Arity > 0 {
		from = 1
	}
	var or uint32
	for _, v := range in.Data {
		or |= uint32(v)
	}
	if w := uint(bits.Len32(or)); w < 32 && uint(in.Arity-from)*w <= 64 {
		var buf [radixMinRows]uint64
		keys := buf[:min(in.N, radixMinRows)]
		switch {
		case in.N < radixMinRows:
		case scratch != nil && cap(*scratch) >= 2*in.N:
			keys = (*scratch)[:in.N]
		case scratch == nil:
			keys = make([]uint64, in.N, 2*in.N)
		default: // twice the largest so far: a run one row longer allocates nothing
			k := make([]uint64, in.N, 2*max(in.N, cap(*scratch))) // not keys: that may hold buf, which must not escape
			*scratch, keys = k, k
		}
		for i := range keys {
			var k uint64
			for _, v := range in.Row(i)[from:] {
				k = k<<w | uint64(v)
			}
			keys[i] = k
		}
		if in.N < radixMinRows {
			slices.Sort(keys)
		} else {
			keys = radixSort(keys, keys[in.N:2*in.N], uint(in.Arity-from)*w)
		}
		keys = slices.Compact(keys)
		out := in.Data
		if !inPlace {
			out = make([]int32, len(keys)*in.Arity)
		}
		for i, k := range keys {
			for c := in.Arity - 1; c >= from; c-- {
				out[i*in.Arity+c], k = int32(k&(1<<w-1)), k>>w
			}
		}
		return Rows{Arity: in.Arity, N: len(keys), Data: out[:len(keys)*in.Arity]}
	}
	out, tail := Rows{Arity: in.Arity, Data: make([]int32, 0, len(in.Data))}, in.Slice(sorted, in.N)
	perm, row := sortedPerm(tail), []int32(nil)
	for i, k := 0, 0; i < sorted || k < len(perm); {
		if k == len(perm) || i < sorted && slices.Compare(in.Row(i), tail.Row(int(perm[k]))) <= 0 {
			row, i = in.Row(i), i+1
		} else {
			row, k = tail.Row(int(perm[k])), k+1
		}
		if out.N == 0 || !slices.Equal(row, out.Row(out.N-1)) {
			out.Data, out.N = append(out.Data, row...), out.N+1
		}
	}
	return out
}

// radixSort sorts keys of the given bit width by LSD counting passes through
// tmp, one per byte; it returns whichever holds the result.
func radixSort(keys, tmp []uint64, width uint) []uint64 {
	for shift := uint(0); shift < width; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[k>>shift&255]++
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, k := range keys {
			b := k >> shift & 255
			tmp[at[b]] = k
			at[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

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

// Merge returns the union of the settled sets a and b, settled, without the
// rows of a that drop (nil: none) reports: a itself when that changes
// nothing, b when a is empty. Neither is written, and no row of b is dropped.
// Each row of b is placed in a's sorted rows by bisection from the last one's
// place, and the runs of a between the new rows are copied whole but for the
// dropped rows, so a b of few rows costs their searches, one drop call per
// row of a and one copy of a's slab.
func Merge(a, b *TupleSet, drop func(row []int32) bool) *TupleSet {
	x, y := a.rows, b.rows
	if y.N == 0 && drop == nil {
		return a
	}
	if x.N == 0 {
		return b
	}
	if !a.settled || y.N > 0 && (!b.settled || x.Arity != y.Arity) {
		panic("pattern: Merge of unsettled sets or of two arities")
	}
	dropped := func(i int) bool { return drop != nil && drop(x.Row(i)) }
	var at []int32 // per new row of b, in order: the row of a it goes before
	var fresh []int32
	lo := 0
	for j := 0; j < y.N; j++ {
		row := y.Row(j)
		lo += sort.Search(x.N-lo, func(i int) bool { return slices.Compare(x.Row(lo+i), row) >= 0 })
		if lo == x.N || !slices.Equal(x.Row(lo), row) || dropped(lo) { // a dropped equal row is not copied
			at, fresh = append(at, int32(lo)), append(fresh, int32(j))
		}
	}
	first := 0 // the first row of a to drop, x.N for none
	for first < x.N && !dropped(first) {
		first++
	}
	if len(at) == 0 && first == x.N {
		return a
	}
	w := x.Arity
	out := Rows{Arity: w, Data: make([]int32, 0, (x.N+len(at))*w)}
	// keep copies the rows of a in [p, q) that are not dropped, in runs.
	keep := func(p, q int) {
		for p < q {
			r := min(q, max(p, first)) // the rows before first are kept
			for r < q && !dropped(r) {
				r++
			}
			out.Data = append(out.Data, x.Data[p*w:r*w]...)
			out.N += r - p
			p = r + 1
		}
	}
	prev := 0
	for k, p := range at {
		keep(prev, int(p))
		out.Data = append(out.Data, y.Row(int(fresh[k]))...)
		out.N++
		prev = int(p)
	}
	keep(prev, x.N)
	return &TupleSet{rows: out, settled: true, kept: out.N, run: -1}
}

// All returns the tuples in the order of Rows.
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

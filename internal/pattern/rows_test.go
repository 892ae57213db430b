package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapTupleSet is the TupleSet this package had before the slab: a map of
// Key() strings plus a list of copied tuples. It stays as the reference the
// slab is tested against.
type mapTupleSet struct {
	seen map[string]bool
	list []Tuple
}

func (s *mapTupleSet) Add(t Tuple) bool {
	k := t.Key()
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.list = append(s.list, append(Tuple(nil), t...))
	return true
}

func (s *mapTupleSet) Sorted() []Tuple {
	out := append([]Tuple(nil), s.list...)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func (s *mapTupleSet) Equal(o *mapTupleSet) bool {
	if len(s.list) != len(o.list) {
		return false
	}
	for k := range s.seen {
		if !o.seen[k] {
			return false
		}
	}
	return true
}

// sameTuples compares tuple lists treating nil and empty alike.
func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Random Add/AddRow/Contains/AddAll/Sorted/Equal against the map reference,
// for arities 0 to 4 and enough rows to double the table several times
// (it starts at 16 slots and stays at most half full). Sorted is asked for
// as the sets grow, so on both sides of radixMinRows, and half the values of
// seeds 2 to 4 lie above 2^8, 2^16 and 2^24: one to four counting passes per
// column. A subtest holds the bulk build, Append and Settle, to the same
// reference.
func TestTupleSetMatchesMapReference(t *testing.T) {
	for arity := 0; arity <= 4; arity++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			span := []int{1, 700, 30, 9, 5}[arity] // values per position: ~700 to 1500 distinct rows
			high := []int{0, 1 << 8, 1 << 16, 1 << 24}[seed-1]
			random := func() Tuple {
				tu := make(Tuple, arity)
				for i := range tu {
					tu[i] = rng.Intn(span) + high*rng.Intn(2)
				}
				return tu
			}
			sets := [2]*TupleSet{NewTupleSet(), NewTupleSet()}
			refs := [2]*mapTupleSet{{seen: map[string]bool{}}, {seen: map[string]bool{}}}
			name := fmt.Sprintf("arity %d seed %d", arity, seed)
			for op := 0; op < 3000; op++ {
				i := rng.Intn(2)
				s, ref, tu := sets[i], refs[i], random()
				switch k := rng.Intn(20); {
				case k < 8:
					if got, want := s.Add(tu), ref.Add(tu); got != want {
						t.Fatalf("%s op %d: Add(%v) = %v, reference %v", name, op, tu, got, want)
					}
				case k < 14:
					var buf [8]int32
					if got, want := s.AddRow(row32(tu, &buf)), ref.Add(tu); got != want {
						t.Fatalf("%s op %d: AddRow(%v) = %v, reference %v", name, op, tu, got, want)
					}
				case k < 17:
					if got, want := s.Contains(tu), ref.seen[tu.Key()]; got != want {
						t.Fatalf("%s op %d: Contains(%v) = %v, reference %v", name, op, tu, got, want)
					}
				case k == 17:
					if got, want := s.Sorted(), ref.Sorted(); !sameTuples(got, want) {
						t.Fatalf("%s op %d: Sorted() = %v, reference %v", name, op, got, want)
					}
					if got := s.All(); !sameTuples(got, ref.list) {
						t.Fatalf("%s op %d: All() = %v, reference %v", name, op, got, ref.list)
					}
				case k == 18:
					if got, want := s.Equal(sets[1-i]), ref.Equal(refs[1-i]); got != want {
						t.Fatalf("%s op %d: Equal = %v, reference %v", name, op, got, want)
					}
				default:
					if op%50 == 0 { // rarely: it makes the two sets equal for a while
						s.AddAll(sets[1-i])
						for _, o := range refs[1-i].list {
							ref.Add(o)
						}
					}
				}
				if s.Len() != len(ref.list) {
					t.Fatalf("%s op %d: Len() = %d, reference %d", name, op, s.Len(), len(ref.list))
				}
			}
			if arity > 0 && sets[0].Len() < 200 {
				t.Fatalf("%s: only %d rows, the table never grew", name, sets[0].Len())
			}
			// A set equals itself and its own copy, whatever the insertion order.
			copyOf := NewTupleSet()
			for _, tu := range sets[0].Sorted() {
				copyOf.Add(tu)
			}
			if !copyOf.Equal(sets[0]) || !sets[0].Equal(copyOf) {
				t.Fatalf("%s: a set differs from its sorted copy", name)
			}
			// The first rows of the set, just under, at and over the size from
			// which the order is computed by counting passes.
			for _, size := range []int{1, radixMinRows - 1, radixMinRows, radixMinRows + 1} {
				if size > len(refs[0].list) {
					break
				}
				s, ref := NewTupleSet(), &mapTupleSet{seen: map[string]bool{}}
				for _, tu := range refs[0].list[:size] {
					s.Add(tu)
					ref.Add(tu)
				}
				if got, want := s.Sorted(), ref.Sorted(); !sameTuples(got, want) {
					t.Fatalf("%s: Sorted() of the first %d rows = %v, reference %v", name, size, got, want)
				}
			}
		}
	}
	t.Run("append and settle", settleMatchesMapReference)
}

// settleMatchesMapReference holds Append+Settle to the map reference, for arities 0 to 4 (arity 0 is a
// Boolean answer: every row is the empty row) and the shapes a producer
// appends: one sorted run, a few sorted runs (a bounded union's leaves),
// random order, few distinct rows, negative values, and values above 2^16
// and 2^24 (more counting passes, or a packed key that fills its word). Each
// shape appends more than settleFloor rows, so Append settles on its own on
// the way; the first 1, 63, 64 and 65 rows settle without ever doing so.
func settleMatchesMapReference(t *testing.T) {
	shapes := []string{"sorted", "runs", "random", "dups", "negative", "high16", "high24"}
	for arity := 0; arity <= 4; arity++ {
		for si, shape := range shapes {
			rng := rand.New(rand.NewSource(int64(10*arity + si)))
			span := []int{1, 700, 30, 9, 5}[arity]
			random := func() Tuple {
				tu := make(Tuple, arity)
				for i := range tu {
					switch shape {
					case "negative":
						tu[i] = rng.Intn(2*span) - span
					case "high16":
						tu[i] = rng.Intn(span) + 1<<16*rng.Intn(2)
					case "high24":
						tu[i] = rng.Intn(span) + (1<<31-span)*rng.Intn(2)
					default:
						tu[i] = rng.Intn(span)
					}
				}
				return tu
			}
			var in []Tuple
			switch shape {
			case "sorted":
				ref := &mapTupleSet{seen: map[string]bool{}}
				for range 5000 {
					ref.Add(random())
				}
				in = ref.Sorted()
			case "runs":
				for range 5 {
					ref := &mapTupleSet{seen: map[string]bool{}}
					for range 1000 {
						ref.Add(random())
					}
					in = append(in, ref.Sorted()...)
				}
			case "dups":
				few := make([]Tuple, 20)
				for i := range few {
					few[i] = random()
				}
				for range 6000 {
					in = append(in, few[rng.Intn(len(few))])
				}
			default:
				for range 6000 {
					in = append(in, random())
				}
			}
			for _, n := range []int{1, radixMinRows - 1, radixMinRows, radixMinRows + 1, len(in)} {
				if n > len(in) {
					continue // arity 0 has one distinct row
				}
				checkSettled(t, fmt.Sprintf("arity %d %s, %d rows", arity, shape, n), in[:n], rng)
			}
		}
	}
}

// checkSettled appends in to a set, settles it and holds every reader to the
// map reference; then Insert and AddAll turn the settled set back into a
// hashed one that must still agree.
func checkSettled(t *testing.T, name string, in []Tuple, rng *rand.Rand) {
	t.Helper()
	s, ref := NewTupleSet(), &mapTupleSet{seen: map[string]bool{}}
	for _, tu := range in {
		var buf [8]int32
		s.Append(row32(tu, &buf))
		ref.Add(tu)
	}
	s.Settle()
	want := ref.Sorted()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, reference %d", name, s.Len(), len(want))
	}
	if got := s.All(); !sameTuples(got, want) {
		t.Fatalf("%s: All() = %v, reference %v", name, got, want)
	}
	if got := s.Sorted(); !sameTuples(got, want) {
		t.Fatalf("%s: Sorted() = %v, reference %v", name, got, want)
	}
	if sr, r := s.SortedRows(), s.Rows(); len(r.Data) > 0 && &sr.Data[0] != &r.Data[0] {
		t.Fatalf("%s: SortedRows copied a settled set", name)
	}
	hashed, reversed := NewTupleSet(), NewTupleSet()
	for i := range in {
		hashed.Add(in[i])
		var buf [8]int32
		reversed.Append(row32(in[len(in)-1-i], &buf))
	}
	reversed.Settle()
	for _, o := range []*TupleSet{hashed, reversed} {
		if !s.Equal(o) || !o.Equal(s) {
			t.Fatalf("%s: a settled set differs from a copy of it", name)
		}
	}
	for _, tu := range in {
		if !s.Contains(tu) {
			t.Fatalf("%s: Contains(%v) = false", name, tu)
		}
	}
	arity := len(in[0])
	probe := func() Tuple {
		tu := make(Tuple, arity)
		for i := range tu {
			tu[i] = rng.Intn(1000) - 100
		}
		return tu
	}
	for range 200 {
		if tu := probe(); s.Contains(tu) != ref.seen[tu.Key()] {
			t.Fatalf("%s: Contains(%v) = %v, reference %v", name, tu, !ref.seen[tu.Key()], ref.seen[tu.Key()])
		}
	}
	// Back to a hashed set: the settled rows keep their order, new rows follow.
	other := NewTupleSet()
	for range 50 {
		tu := probe()
		other.Add(tu)
		if got, want := s.Add(tu), ref.Add(tu); got != want {
			t.Fatalf("%s: Add(%v) on a settled set = %v, reference %v", name, tu, got, want)
		}
	}
	for range 50 {
		other.Add(probe())
	}
	s.AddAll(other)
	for _, tu := range other.All() {
		ref.Add(tu)
	}
	if s.Len() != len(ref.list) || !sameTuples(s.Sorted(), ref.Sorted()) || !sameTuples(s.All()[:len(want)], want) {
		t.Fatalf("%s: Add and AddAll on a settled set disagree with the reference", name)
	}
}

// A duplicate-heavy projection appended row by row never holds more than
// about twice its distinct rows: Append settles whenever the bag doubles, and
// after a settle that finds the bag mostly duplicates it inserts instead.
func TestTupleSetAppendBounded(t *testing.T) {
	const distinct = 300
	rng := rand.New(rand.NewSource(1))
	s, limit := NewTupleSet(), max(settleFloor, 2*distinct)
	for i := range 1_000_000 {
		v := int32(rng.Intn(distinct))
		s.Append([]int32{v, v * 7})
		if n := s.Rows().N; n > limit {
			t.Fatalf("append %d: the bag holds %d rows, want at most %d", i, n, limit)
		}
	}
	if !s.hashing {
		t.Fatal("Append still sorts bags that are mostly duplicates")
	}
	if s.Settle(); s.Len() != distinct {
		t.Fatalf("Len() = %d after Settle, want %d", s.Len(), distinct)
	}
}

// The bound holds while the rows lead with one value, as a join's do below
// one node of its outermost scan: the one run doubles and is settled again,
// in place, until a settle that finds it mostly duplicates makes Append
// insert.
func TestTupleSetAppendBoundedOneLead(t *testing.T) {
	const distinct = 300
	rng := rand.New(rand.NewSource(1))
	s, limit := NewTupleSet(), max(settleFloor, 2*distinct)
	for i := range 1_000_000 {
		v := int32(rng.Intn(distinct))
		s.Append([]int32{7, v, v * 7})
		if n := s.Rows().N; n > limit {
			t.Fatalf("append %d: the run holds %d rows, want at most %d", i, n, limit)
		}
		if i == settleFloor-2 && s.run != 0 {
			t.Fatalf("append %d: one leading value left run mode (run = %d)", i, s.run)
		}
	}
	if !s.hashing {
		t.Fatal("Append still sorts runs that are mostly duplicates")
	}
	if s.Settle(); s.Len() != distinct {
		t.Fatalf("Len() = %d after Settle, want %d", s.Len(), distinct)
	}
}

// Append over streams whose rows lead in nondecreasing order, as a join's
// do — runs of one first value, of 1 to 1 500 rows, with duplicate tails —
// against a sort-and-dedup reference, for arities 0 to 4: in half the
// streams one row at a random place leads with a smaller value and hands
// the runs to the bag, Settle runs at random places with Appends after it,
// an Insert follows the last Append, and some seeds hold negative values
// (the comparison sort) or tails too wide for one packed key.
func TestTupleSetRunsMatchReference(t *testing.T) {
	for arity := 0; arity <= 4; arity++ {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(10*seed + int64(arity)))
			name := fmt.Sprintf("arity %d seed %d", arity, seed)
			neg, wide := seed%4 == 0, seed%4 == 3
			n, brk := 200+rng.Intn(4000), -1
			if seed%2 == 0 {
				brk = rng.Intn(n)
			}
			s, ref := NewTupleSet(), &mapTupleSet{seen: map[string]bool{}}
			check := func(when string) {
				t.Helper()
				got, want := s.All(), ref.Sorted()
				for i := 0; i < max(len(got), len(want)); i++ {
					if i == len(got) || i == len(want) || !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s %s: %d rows, reference %d; they part at row %d", name, when, len(got), len(want), i)
					}
				}
			}
			lead, left, span := rng.Intn(5), 0, 1+rng.Intn(20)
			if neg {
				lead = -50
			}
			for i := range n {
				if left == 0 {
					lead += rng.Intn(3) // 0: the same value leads the next run too
					left = []int{1, 3, 20, 100, 1500}[rng.Intn(5)]
				}
				left--
				tu := make(Tuple, arity)
				for c := range tu {
					tu[c] = rng.Intn(span)
					if neg && rng.Intn(4) == 0 {
						tu[c] = -1 - tu[c]
					}
					if wide && rng.Intn(2) == 0 {
						tu[c] += 1 << 22 // three such tail columns need 69 bits
					}
				}
				if arity > 0 {
					tu[0] = lead
					if i == brk {
						tu[0] = lead - 1 - rng.Intn(3)
					}
				}
				var buf [8]int32
				s.Append(row32(tu, &buf))
				ref.Add(tu)
				if rng.Intn(400) == 0 {
					s.Settle()
					check(fmt.Sprintf("Settle after row %d", i))
				}
			}
			switch inRun := s.run >= 0; {
			case arity > 0 && brk >= 0 && inRun:
				t.Fatalf("%s: row %d broke the order, and the set is still in run mode", name, brk)
			case brk < 0 && !inRun && !s.hashing:
				t.Fatalf("%s: an ordered stream left run mode", name)
			}
			tu := make(Tuple, arity)
			for c := range tu {
				tu[c] = rng.Intn(span)
			}
			var buf [8]int32
			if got, want := s.AddRow(row32(tu, &buf)), ref.Add(tu); got != want {
				t.Fatalf("%s: Insert(%v) after the stream = %v, reference %v", name, tu, got, want)
			}
			s.Settle()
			check("after the Insert")
		}
	}
}

// A settled set is read in place: eight goroutines share one (SortedRows,
// Contains, Len, Rows, Equal) while nothing writes, which -race checks.
func TestTupleSetSettledSharedReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, hashed, seen := NewTupleSet(), NewTupleSet(), map[[2]int]bool{}
	for range 5000 {
		u, v := rng.Intn(300), rng.Intn(300)
		s.Append([]int32{int32(u), int32(v)})
		hashed.Add(Tuple{u, v})
		seen[[2]int{u, v}] = true
	}
	s.Settle()
	errs := make(chan error, 8)
	for g := range 8 {
		go func() {
			rng := rand.New(rand.NewSource(int64(g)))
			for range 2000 {
				u, v := rng.Intn(310), rng.Intn(310)
				if s.Contains(Tuple{u, v}) != seen[[2]int{u, v}] {
					errs <- fmt.Errorf("goroutine %d: Contains(%d, %d) is wrong", g, u, v)
					return
				}
			}
			sr, r := s.SortedRows(), s.Rows()
			switch {
			case s.Len() != len(seen) || sr.N != len(seen) || r.N != len(seen):
				errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, s.Len(), len(seen))
			case &sr.Data[0] != &r.Data[0]:
				errs <- fmt.Errorf("goroutine %d: SortedRows copied", g)
			case !s.Equal(hashed) || !hashed.Equal(s):
				errs <- fmt.Errorf("goroutine %d: Equal is false", g)
			default:
				errs <- nil
			}
		}()
	}
	for range 8 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Building many tiny answers must stay as cheap as hashing them was: a settle
// of fewer than radixMinRows rows allocates no more than AddRow and
// SortedRows.
func TestTupleSetSmallSettleAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int32, radixMinRows-1)
	for i := range rows {
		rows[i] = []int32{int32(rng.Intn(50)), int32(rng.Intn(50))}
	}
	settled := testing.AllocsPerRun(100, func() {
		s := NewTupleSet()
		for _, r := range rows {
			s.Append(r)
		}
		s.Settle()
		s.SortedRows()
	})
	hashed := testing.AllocsPerRun(100, func() {
		s := NewTupleSet()
		for _, r := range rows {
			s.AddRow(r)
		}
		s.SortedRows()
	})
	if settled > hashed {
		t.Fatalf("a settle of %d rows allocates %v objects, AddRow and SortedRows %v", len(rows), settled, hashed)
	}
}

// A value that is no node id sends the whole set to the comparison sort,
// which orders it like any other int32.
func TestTupleSetSortedRowsNegative(t *testing.T) {
	s, ref := NewTupleSet(), &mapTupleSet{seen: map[string]bool{}}
	for i := 0; i < 2*radixMinRows; i++ {
		tu := Tuple{(i * 37) % 101, i%7 - 1}
		s.Add(tu)
		ref.Add(tu)
	}
	if got, want := s.Sorted(), ref.Sorted(); !sameTuples(got, want) || got[0][1] != -1 {
		t.Fatalf("Sorted() = %v, reference %v", got, want)
	}
}

// The sorted order is computed once per content: two calls share one slab,
// and an insertion after the first is seen by the next.
func TestTupleSetSortedRowsMemoized(t *testing.T) {
	s := NewTupleSet()
	for _, tu := range []Tuple{{3, 1}, {1, 2}, {2, 0}} {
		s.Add(tu)
	}
	a, b := s.SortedRows(), s.SortedRows()
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("SortedRows sorted the same content twice")
	}
	s.Add(Tuple{0, 9})
	if c := s.SortedRows(); c.N != 4 || c.Row(0)[0] != 0 || c.Row(3)[0] != 3 {
		t.Fatalf("SortedRows after an insertion = %v", c)
	}
}

// BenchmarkTupleSetSortedRows: the one sort of a materialised answer, pairs
// of node ids of a 5 000-node graph, at a typical and at a large answer size.
func BenchmarkTupleSetSortedRows(b *testing.B) {
	for _, n := range []int{2000, 50000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := NewTupleSet()
			for s.Len() < n {
				s.AddRow([]int32{int32(rng.Intn(5000)), int32(rng.Intn(5000))})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.sorted = Rows{}
				s.SortedRows()
			}
		})
	}
}

// BenchmarkTupleSetSettle: a materialised answer of 10 000 pairs of node ids
// of a 5 000-node graph, appended and settled, in the shapes producers
// append: already sorted, six sorted runs (a bounded union), random, and a
// tenth of the rows distinct; wide5 is 10 000 random rows of arity 5, too wide
// to pack into one uint64. Each arm's -hashed twin builds the same set by
// AddRow and sorts it with SortedRows.
func BenchmarkTupleSetSettle(b *testing.B) {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	pair := func() []int32 { return []int32{int32(rng.Intn(5000)), int32(rng.Intn(5000))} }
	sortedRun := func(m int) []int32 {
		s := NewTupleSet()
		for s.Len() < m {
			s.AddRow(pair())
		}
		return s.SortedRows().Data
	}
	arms := map[string][]int32{"sorted": sortedRun(n)}
	for range 6 {
		arms["runs6"] = append(arms["runs6"], sortedRun(n/6)...)
	}
	few := sortedRun(n / 10)
	for range n {
		i := 2 * rng.Intn(len(few)/2)
		arms["random"] = append(arms["random"], pair()...)
		arms["dups"] = append(arms["dups"], few[i:i+2]...)
		arms["wide5"] = append(arms["wide5"], append(pair(), pair()[0], pair()[0], pair()[0])...)
	}
	// joined: the rows of a two-atom chain join with outputs (x, z), as it
	// emits them — x ascending, under each x the sorted z lists of its y
	// partners one after the other.
	for x := 0; len(arms["joined"]) < 2*n; x += 1 + rng.Intn(3) {
		for range 1 + rng.Intn(4) {
			z := rng.Intn(5000)
			for range 1 + rng.Intn(4) {
				arms["joined"] = append(arms["joined"], int32(x), int32(z))
				z += 1 + rng.Intn(200)
			}
		}
	}
	for _, arm := range []string{"sorted", "runs6", "random", "dups", "wide5", "joined"} {
		rows, w := arms[arm], 2
		if arm == "wide5" {
			w = 5
		}
		b.Run(arm, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewTupleSet()
				for j := 0; j < len(rows); j += w {
					s.Append(rows[j : j+w])
				}
				s.Settle()
				s.SortedRows()
			}
		})
		b.Run(arm+"-hashed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewTupleSet()
				for j := 0; j < len(rows); j += w {
					s.AddRow(rows[j : j+w])
				}
				s.SortedRows()
			}
		})
	}
}

func BenchmarkTupleSetAdd(b *testing.B) {
	rows := make([]int32, 0, 2*1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		rows = append(rows, int32(rng.Intn(5000)), int32(rng.Intn(5000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewTupleSet()
		for j := 0; j < len(rows); j += 2 {
			s.AddRow(rows[j : j+2])
		}
	}
}

// TestMergeSettled: Merge of two settled sets is their union, settled —
// arity 0 included — and returns a itself when b adds nothing.
func TestMergeSettled(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		arity := r.Intn(4)
		a, b, want := NewTupleSet(), NewTupleSet(), NewTupleSet()
		for _, s := range []*TupleSet{a, b} {
			for i := r.Intn(40); i > 0; i-- {
				row := make([]int32, arity)
				for c := range row {
					row[c] = int32(r.Intn(6))
				}
				s.Append(row)
				want.AddRow(row)
			}
			s.Settle()
		}
		got := Merge(a, b, nil)
		if !got.Equal(want) || !slices.IsSortedFunc(got.Rows().Tuples(), func(p, q Tuple) int { return slices.Compare(p, q) }) {
			t.Fatalf("trial %d: Merge of %v and %v is %v", trial, a.Sorted(), b.Sorted(), got.Rows().Tuples())
		}
		if got.Len() == a.Len() && a.Len() > 0 && got != a {
			t.Fatalf("trial %d: b adds nothing, but Merge copied a", trial)
		}
	}
}

// TestMergeDrop: Merge with a drop predicate is a naive filter of a followed
// by a union with b — over random settled sets, empty ones and arity 0, with
// predicates that drop nothing, everything or rows by one column — and
// returns a itself when it drops nothing and b adds nothing. A row of b equal
// to a dropped row of a is kept.
func TestMergeDrop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 600; trial++ {
		arity := r.Intn(4)
		a, b := NewTupleSet(), NewTupleSet()
		for _, s := range []*TupleSet{a, b} {
			for i := r.Intn(3) * r.Intn(30); i > 0; i-- {
				row := make([]int32, arity)
				for c := range row {
					row[c] = int32(r.Intn(6))
				}
				s.Append(row)
			}
			s.Settle()
		}
		col, bad := r.Intn(max(arity, 1)), int32(r.Intn(6))
		var drop func([]int32) bool
		switch r.Intn(4) {
		case 0:
			drop = func([]int32) bool { return false }
		case 1:
			drop = func([]int32) bool { return true }
		default:
			drop = func(row []int32) bool { return arity > 0 && row[col] <= bad }
		}
		want := NewTupleSet()
		for i := 0; i < a.Len(); i++ {
			if row := a.Rows().Row(i); !drop(row) {
				want.AddRow(row)
			}
		}
		want.AddAll(b)
		got := Merge(a, b, drop)
		if !got.Equal(want) || !slices.IsSortedFunc(got.Rows().Tuples(), func(p, q Tuple) int { return slices.Compare(p, q) }) || len(got.Rows().Data) != got.Len()*arity {
			t.Fatalf("trial %d: Merge of %v and %v dropping rows is %v, want %v", trial, a.Sorted(), b.Sorted(), got.Rows().Tuples(), want.Sorted())
		}
		kept := 0
		for i := 0; i < a.Len(); i++ {
			if !drop(a.Rows().Row(i)) {
				kept++
			}
		}
		if kept == a.Len() && a.Len() > 0 && want.Equal(a) && got != a {
			t.Fatalf("trial %d: nothing dropped or added, but Merge copied a", trial)
		}
	}
}

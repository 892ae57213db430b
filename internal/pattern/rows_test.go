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
// column.
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

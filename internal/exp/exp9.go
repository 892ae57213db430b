package exp

import (
	"fmt"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/workload"
)

// e26Query is the ranked-enumeration stress query: a two-atom join on the
// gMark-style graph whose first atom is a cheap single-label scan while the
// join's answer set is quadratic-ish — so the incremental enumerator's
// first row costs one scan plus one shallow single-source sweep, while
// drain-then-sort pays for the whole join and a global sort before the
// first row can leave the cursor.
const e26Query = "ans(x, z)\nx y : a+\ny z : b+"

// e26DrainLess replicates the default ranked comparator exactly (cost
// ascending, then lexicographic tuple order, then arity). Passing it as a
// custom StreamOptions.Less forces the historical drain-then-sort producer
// while leaving the output order identical — the in-tree baseline the
// incremental any-k enumerator is measured against.
func e26DrainLess(a, b cxrpq.Row) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	n := len(a.Tuple)
	if len(b.Tuple) < n {
		n = len(b.Tuple)
	}
	for i := 0; i < n; i++ {
		if a.Tuple[i] != b.Tuple[i] {
			return a.Tuple[i] < b.Tuple[i]
		}
	}
	return len(a.Tuple) < len(b.Tuple)
}

// E26RankedTTFR measures the incremental any-k ranked enumerator (PR 10)
// against the drain-then-sort baseline on the gMark-style workload: the
// time until the first ranked row leaves the cursor, session-cold, for the
// priority-queue producer (default comparator — pops partial assignments by
// an admissible lower bound and emits the global minimum without touching
// the rest of the answer space) versus the historical producer (forced via
// a custom Less that replicates the default order byte for byte, so only
// the production strategy differs). The first rows of both streams are
// asserted identical, a shared prefix is asserted equal row by row, and the
// incremental stream's costs are asserted nondecreasing. The acceptance
// floor for PR 10 is ttfr_speedup ≥ 50x — an algorithmic gap (one best-first
// probe versus materializing and sorting the whole quadratic-ish answer
// set), so it holds at any GOMAXPROCS.
func E26RankedTTFR(scale int) *Table {
	t := &Table{ID: "E26", Title: "Incremental any-k: ranked time-to-first-row vs drain-then-sort (gMark-style)",
		Header: []string{"mode", "first row", "first cost", "ttfr", "speedup"}}
	db := workload.GMark(7, 1200*scale)
	db.Index() // shared label index: warm it outside every timing
	plan, err := cxrpq.PrepareSrc(e26Query)
	if err != nil {
		return fail(t, err)
	}

	const reps = 3
	firstRow := func(opts cxrpq.StreamOptions) (cxrpq.Row, time.Duration, error) {
		var row cxrpq.Row
		best := time.Duration(0)
		for i := 0; i < reps; i++ {
			start := time.Now()
			cur, err := plan.Bind(db).Stream(opts) // fresh bind: session-cold
			if err != nil {
				return row, 0, err
			}
			rows := cur.Fetch(1)
			d := time.Since(start)
			cur.Close()
			if len(rows) != 1 {
				return row, 0, fmt.Errorf("ranked stream produced no first row")
			}
			row = rows[0]
			if best == 0 || d < best {
				best = d
			}
		}
		return row, best, nil
	}

	incFirst, incD, err := firstRow(cxrpq.StreamOptions{Ranked: true})
	if err != nil {
		return fail(t, err)
	}
	drainFirst, drainD, err := firstRow(cxrpq.StreamOptions{Ranked: true, Less: e26DrainLess})
	if err != nil {
		return fail(t, err)
	}
	if incFirst.Cost != drainFirst.Cost || incFirst.Tuple.Key() != drainFirst.Tuple.Key() {
		return fail(t, fmt.Errorf("first ranked row diverged: any-k %v/%d, drain %v/%d",
			incFirst.Tuple, incFirst.Cost, drainFirst.Tuple, drainFirst.Cost))
	}

	// Order agreement beyond the first row, and the any-k cost invariant: a
	// shared prefix of both streams must match row by row, with the
	// incremental stream's costs nondecreasing throughout.
	const prefix = 64
	take := func(opts cxrpq.StreamOptions) ([]cxrpq.Row, error) {
		cur, err := plan.Bind(db).Stream(opts)
		if err != nil {
			return nil, err
		}
		defer cur.Close()
		rows := cur.Fetch(prefix)
		return rows, cur.Err()
	}
	incRows, err := take(cxrpq.StreamOptions{Ranked: true, Limit: prefix})
	if err != nil {
		return fail(t, err)
	}
	drainRows, err := take(cxrpq.StreamOptions{Ranked: true, Less: e26DrainLess, Limit: prefix})
	if err != nil {
		return fail(t, err)
	}
	if len(incRows) != len(drainRows) {
		return fail(t, fmt.Errorf("prefix lengths diverged: any-k %d, drain %d", len(incRows), len(drainRows)))
	}
	for i := range incRows {
		if incRows[i].Cost != drainRows[i].Cost || incRows[i].Tuple.Key() != drainRows[i].Tuple.Key() {
			return fail(t, fmt.Errorf("prefix row %d diverged: any-k %v/%d, drain %v/%d",
				i, incRows[i].Tuple, incRows[i].Cost, drainRows[i].Tuple, drainRows[i].Cost))
		}
		if i > 0 && incRows[i].Cost < incRows[i-1].Cost {
			return fail(t, fmt.Errorf("any-k cost decreased at row %d: %d after %d",
				i, incRows[i].Cost, incRows[i-1].Cost))
		}
	}

	speedup := float64(drainD.Nanoseconds()) / float64(max64(incD.Nanoseconds(), 1))
	t.Rows = append(t.Rows,
		[]string{"any-k (incremental)", fmt.Sprint(incFirst.Tuple), fmt.Sprint(incFirst.Cost), ms(incD), fmt.Sprintf("%.0fx", speedup)},
		[]string{"drain-then-sort", fmt.Sprint(drainFirst.Tuple), fmt.Sprint(drainFirst.Cost), ms(drainD), "1x"})
	if speedup < 50 {
		return fail(t, fmt.Errorf("ranked TTFR speedup %.1fx below the 50x acceptance floor (any-k %v, drain %v)",
			speedup, incD, drainD))
	}
	return t
}

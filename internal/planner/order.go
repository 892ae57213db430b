package planner

// Atom is one join input: a binary constraint between two node variables
// with a cardinality estimate of its relation.
type Atom struct {
	From, To string
	Est      Estimate
}

// Mode names how the join visits an atom given the variables bound before
// it: a membership probe, a bound-endpoint expansion, or a full scan.
type Mode string

const (
	ModeCheck    Mode = "check"      // both endpoints bound: one probe per row
	ModeForward  Mode = "expand"     // source bound: enumerate targets
	ModeBackward Mode = "expand-rev" // target bound: enumerate sources
	ModeScan     Mode = "scan"       // neither bound: enumerate the relation
)

// Step is one placed atom of a plan with its cost-model numbers.
type Step struct {
	Atom int     // index into the input atom slice
	Mode Mode    // visit mode under the bindings accumulated before it
	Cost float64 // estimated work of the step (probes/expansions)
	Rows float64 // estimated intermediate rows after the step
}

// PlanSpec is a join order with its cost model: the order slice indexes the
// atoms handed to Order. A join only reads Order (any permutation of the
// atoms is a valid plan) and the gate only Cost.
type PlanSpec struct {
	Order []int
	Steps []Step
	Cost  float64 // Σ step costs
	Rows  float64 // estimated final rows
}

// rowsFloor keeps the running row estimate from collapsing to zero: an
// atom estimated empty would otherwise zero every later step's cost and
// make the remaining order arbitrary.
const rowsFloor = 1e-6

// stepFor models visiting atom a with `rows` intermediate rows and the
// given bound variables.
func stepFor(a Atom, bound map[string]bool, rows float64) (Mode, float64, float64) {
	ub, vb := bound[a.From], bound[a.To]
	switch {
	case ub && vb:
		return ModeCheck, rows, rows * a.Est.Selectivity()
	case ub:
		f := a.Est.Fanout()
		return ModeForward, rows * (1 + f), rows * f
	case vb:
		f := a.Est.RevFanout()
		return ModeBackward, rows * (1 + f), rows * f
	default:
		return ModeScan, rows * (1 + a.Est.Pairs), rows * a.Est.Pairs
	}
}

// Order runs the greedy cost-based join-order search: at every step it
// picks the atom with the cheapest visit under the bindings accumulated so
// far (ties broken by the smaller resulting row estimate, then input
// order), binds its endpoints and propagates the row estimate. pre lists
// variables bound before the join starts (Check-style); nil means none.
func Order(atoms []Atom, pre map[string]bool) *PlanSpec {
	bound := map[string]bool{}
	for x, b := range pre {
		if b {
			bound[x] = true
		}
	}
	spec := &PlanSpec{Rows: 1}
	remaining := make([]int, len(atoms))
	for i := range remaining {
		remaining[i] = i
	}
	rows := 1.0
	for len(remaining) > 0 {
		best := -1
		var bestMode Mode
		var bestCost, bestRows float64
		for idx, ai := range remaining {
			mode, cost, nrows := stepFor(atoms[ai], bound, rows)
			if best < 0 || cost < bestCost || (cost == bestCost && nrows < bestRows) {
				best, bestMode, bestCost, bestRows = idx, mode, cost, nrows
			}
		}
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		bound[atoms[ai].From], bound[atoms[ai].To] = true, true
		rows = bestRows
		if rows < rowsFloor {
			rows = rowsFloor
		}
		spec.Order = append(spec.Order, ai)
		spec.Steps = append(spec.Steps, Step{Atom: ai, Mode: bestMode, Cost: bestCost, Rows: bestRows})
		spec.Cost += bestCost
	}
	spec.Rows = rows
	if len(spec.Steps) > 0 {
		spec.Rows = spec.Steps[len(spec.Steps)-1].Rows
	}
	return spec
}

package planner

import "sync/atomic"

// Tuning is the one value behind every choice the evaluation stack makes
// that cannot change an answer: which rewrites a join may take and how wide
// its fans run. The zero value is what cxrpq-serve runs, and the only value
// non-test code ever holds; ecrpq.Options and the cxrpq.Session carry it
// down, and tests hand them a non-zero one to get a rewrites-off baseline,
// to force the Yannakakis program on graphs far too small to clear its cost
// gates, or to fix the fan width.
type Tuning struct {
	NoMinimize bool // keep the atoms Minimize would delete
	NoAcyclic  bool // never run the Yannakakis program: every join backtracks
	Force      bool // floor and gain are zero: every eligible join takes its pass
	Workers    int  // width of the engine.Fan calls of one evaluation; 0 means GOMAXPROCS
}

const (
	// semijoinFloor is the estimated join cost below which the Yannakakis
	// program's linear sweeps over the relations are not worth making.
	semijoinFloor = 256
	// yannakakisGain is the factor by which a join's estimated backtracking
	// cost must exceed the cost of materializing its relations before the
	// evaluator builds them to run the Yannakakis program. The program is
	// linear in the relation sizes, so it pays off only when backtracking is
	// estimated to re-walk the relations repeatedly; selective joins (the
	// planner's bread and butter) stay on backtracking.
	yannakakisGain = 4
)

// Strategy is how one join runs.
type Strategy int

const (
	// Backtracking is the backtracking join in the planned order.
	Backtracking Strategy = iota
	// Yannakakis is the semijoin program over the join tree followed by a
	// dead-end-free enumeration.
	Yannakakis
)

func (s Strategy) String() string {
	return [...]string{"backtracking", "yannakakis"}[s]
}

// Join is what the gate knows about one join.
type Join struct {
	Cost   float64 // estimated cost of the backtracking join in the planned order (PlanSpec.Cost)
	Build  float64 // estimated cost of materializing the relations the passes read; 0 when they exist already
	Lazy   bool    // the caller wants a first answer, not the set
	Groups bool    // the join has relation groups besides its atoms
	// Graph returns the conjunct graph and the atoms to leave out of it
	// (minimized away, or parallel duplicates; nil leaves none out). It is
	// asked at most once, and only for a join that clears the exclusions,
	// the floor and the gain.
	Graph func() (edges []EdgeRef, skip []bool)
}

// EdgeRef names the endpoints of one atom of a conjunct graph.
type EdgeRef struct {
	From, To string
}

// Strategy is the one gate between the two join strategies; the join tree
// comes with Yannakakis. A lazy or grouped join and one below the floor
// backtrack. Above the floor an acyclic conjunct graph runs the Yannakakis
// program, provided the backtracking estimate is yannakakisGain times what
// building the relations would cost (nothing, over materialized ones);
// everything else backtracks.
func (t Tuning) Strategy(j Join) (Strategy, *JoinTree) {
	floor, gain := float64(semijoinFloor), float64(yannakakisGain)
	if t.Force {
		floor, gain = 0, 0
	}
	if t.NoAcyclic || j.Lazy || j.Groups || j.Cost < floor || j.Cost < gain*j.Build {
		return Backtracking, nil
	}
	edges, skip := j.Graph()
	kept := len(edges)
	for _, s := range skip {
		if s {
			kept--
		}
	}
	if kept == 0 {
		return Backtracking, nil
	}
	if tree, ok := BuildJoinTree(edges, skip); ok {
		return Yannakakis, tree
	}
	ctrCyclicFallback.Add(1)
	return Backtracking, nil
}

// Counters are the planner telemetry, surfaced by cxrpq-serve /stats.
type Counters struct {
	ContainChecks  uint64 `json:"contain_checks"`   // NFA-containment product explorations
	ContainBails   uint64 `json:"contain_bails"`    // explorations abandoned at the state cap
	AtomsMinimized uint64 `json:"atoms_minimized"`  // atoms deleted by Minimize
	AcyclicPlans   uint64 `json:"acyclic_plans"`    // Yannakakis programs executed
	SemijoinPasses uint64 `json:"semijoin_passes"`  // semijoin sweeps of the Yannakakis programs (two each)
	CyclicFallback uint64 `json:"cyclic_fallbacks"` // gate decisions that wanted the acyclic path but the core was cyclic
}

var (
	ctrContainChecks  atomic.Uint64
	ctrContainBails   atomic.Uint64
	ctrAtomsMinimized atomic.Uint64
	ctrAcyclicPlans   atomic.Uint64
	ctrSemijoinPasses atomic.Uint64
	ctrCyclicFallback atomic.Uint64
)

// CountSemijoinPass records one semijoin sweep over materialized
// relations; ecrpq calls it from the Yannakakis passes.
func CountSemijoinPass() { ctrSemijoinPasses.Add(1) }

// CountAcyclicPlan records one executed Yannakakis join program.
func CountAcyclicPlan() { ctrAcyclicPlans.Add(1) }

// Stats returns a snapshot of the planner counters.
func Stats() Counters {
	return Counters{
		ContainChecks:  ctrContainChecks.Load(),
		ContainBails:   ctrContainBails.Load(),
		AtomsMinimized: ctrAtomsMinimized.Load(),
		AcyclicPlans:   ctrAcyclicPlans.Load(),
		SemijoinPasses: ctrSemijoinPasses.Load(),
		CyclicFallback: ctrCyclicFallback.Load(),
	}
}

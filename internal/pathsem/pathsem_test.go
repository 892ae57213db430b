package pathsem

import (
	"testing"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// pathUnder reports whether EvalRPQ answers (u, v): a u→v path matching rx
// exists under sem.
func pathUnder(db *graph.DB, rx xregex.Node, u, v int, sem Semantics) (bool, error) {
	res, err := EvalRPQ(db, rx, sem)
	if err != nil {
		return false, err
	}
	return res.Contains(pattern.Tuple{u, v}), nil
}

func TestSemanticsString(t *testing.T) {
	if Arbitrary.String() != "arbitrary" || Simple.String() != "simple" || Trail.String() != "trail" {
		t.Fatal("names wrong")
	}
}

// On a 3-cycle, the word aaaa needs to revisit nodes: it exists under
// arbitrary semantics but not under simple or trail semantics.
func TestCycleDistinguishesSemantics(t *testing.T) {
	db := graph.MustParse(`
u a v
v a w
w a u
`)
	rx := xregex.MustParse("aaaa")
	u, _ := db.Lookup("u")
	v, _ := db.Lookup("v")
	okArb, err := pathUnder(db, rx, u, v, Arbitrary)
	if err != nil {
		t.Fatal(err)
	}
	if !okArb {
		t.Fatal("arbitrary: aaaa path u→v exists (wraps the cycle)")
	}
	okSimple, err := pathUnder(db, rx, u, v, Simple)
	if err != nil {
		t.Fatal(err)
	}
	if okSimple {
		t.Fatal("simple: aaaa must revisit a node on a 3-cycle")
	}
	okTrail, err := pathUnder(db, rx, u, v, Trail)
	if err != nil {
		t.Fatal(err)
	}
	if okTrail {
		t.Fatal("trail: aaaa must reuse an edge on a 3-cycle")
	}
}

// Trails may revisit nodes but not edges: the figure-eight graph admits a
// trail through the middle node twice.
func TestTrailAllowsNodeRevisit(t *testing.T) {
	db := graph.MustParse(`
m a p
p a m
m a q
q a m
`)
	rx := xregex.MustParse("aaaa")
	m, _ := db.Lookup("m")
	okSimple, err := pathUnder(db, rx, m, m, Simple)
	if err != nil {
		t.Fatal(err)
	}
	if okSimple {
		t.Fatal("simple: cannot revisit m")
	}
	okTrail, err := pathUnder(db, rx, m, m, Trail)
	if err != nil {
		t.Fatal(err)
	}
	if !okTrail {
		t.Fatal("trail: m→p→m→q→m uses 4 distinct edges")
	}
}

// On acyclic graphs all three semantics agree.
func TestAcyclicAgreement(t *testing.T) {
	db := graph.MustParse(`
a x b
b y c
a y d
d x c
`)
	rx := xregex.MustParse("(x|y)(x|y)")
	rArb, err := EvalRPQ(db, rx, Arbitrary)
	if err != nil {
		t.Fatal(err)
	}
	rSim, err := EvalRPQ(db, rx, Simple)
	if err != nil {
		t.Fatal(err)
	}
	rTra, err := EvalRPQ(db, rx, Trail)
	if err != nil {
		t.Fatal(err)
	}
	if !rArb.Equal(rSim) || !rArb.Equal(rTra) {
		t.Fatalf("semantics disagree on a DAG: %v / %v / %v", rArb.Sorted(), rSim.Sorted(), rTra.Sorted())
	}
	a, _ := db.Lookup("a")
	c, _ := db.Lookup("c")
	if !rArb.Contains(pattern.Tuple{a, c}) {
		t.Fatal("(a, c) expected")
	}
}

func TestEpsilonPathAllSemantics(t *testing.T) {
	db := graph.MustParse("u a v")
	rx := xregex.MustParse("a*")
	u, _ := db.Lookup("u")
	for _, sem := range []Semantics{Arbitrary, Simple, Trail} {
		ok, err := pathUnder(db, rx, u, u, sem)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%v: ε-path u→u should match a*", sem)
		}
	}
}

func TestRejectVariables(t *testing.T) {
	db := graph.MustParse("u a v")
	if _, err := EvalRPQ(db, xregex.MustParse("$x{a}$x"), Arbitrary); err == nil {
		t.Fatal("variables must be rejected")
	}
}

package crpq

import (
	"testing"

	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// The genealogy graph used for Figure 1: arcs (u, p, v) mean "u is a parent
// of v" and (u, s, v) mean "v is u's PhD-supervisor".
func genealogy() *graph.DB {
	return graph.MustParse(`
ada p bea
bea p cid
ada s cid
bea s dan
cid p dan
dan p eve
eve s ada
`)
}

func TestFigure1G1(t *testing.T) {
	// G1: pairs (v1, v2) where v1's child has been supervised by v2's parent:
	// v1 -p-> z1, z1 -s-> ... the paper's G1 is v1 -p-> m -s-> w <-p- v2
	db := genealogy()
	q := MustParse(`
ans(v1, v2)
v1 m : p
m w : s
v2 w : p
`)
	res, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	// bea -p-> cid? no: ada -p-> bea, bea -s-> dan, cid -p-> dan ⇒ (ada, cid)
	ada, _ := db.Lookup("ada")
	cid, _ := db.Lookup("cid")
	if !res.Contains(pattern.Tuple{ada, cid}) {
		t.Fatalf("expected (ada, cid) in %v", res.Sorted())
	}
}

func TestFigure1G2Union(t *testing.T) {
	// G2: v1 -p+ ∨ s+-> v2
	db := genealogy()
	q := MustParse("ans(v1, v2)\nv1 v2 : p+|s+")
	res, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	ada, _ := db.Lookup("ada")
	eve, _ := db.Lookup("eve")
	if !res.Contains(pattern.Tuple{ada, eve}) {
		t.Fatal("ada is an ancestor of eve via p+")
	}
}

func TestFigure1G3Cycle(t *testing.T) {
	// G3: v1 with some z: z -p+-> v1 and z -s+-> v1.
	db := genealogy()
	q := MustParse("ans(v1)\nz v1 : p+\nz v1 : s+")
	res, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	// ada -p-> bea -p-> cid and ada -s-> cid: cid qualifies
	cid, _ := db.Lookup("cid")
	if !res.Contains(pattern.Tuple{cid}) {
		t.Fatalf("cid expected in %v", res.Sorted())
	}
}

func TestVariablesRejected(t *testing.T) {
	if _, err := Parse("ans()\nx y : $v{a}$v"); err == nil {
		t.Fatal("CRPQ must reject string variables")
	}
}

func TestUnion(t *testing.T) {
	db := graph.MustParse("u a v")
	u := &Union{Members: []*Query{
		MustParse("ans(x)\nx y : a"),
		MustParse("ans(x)\nx y : b"),
	}}
	res, err := u.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("res = %v", res.Sorted())
	}
	if u.Size() <= 0 {
		t.Fatal("size should be positive")
	}
}

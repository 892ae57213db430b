package cxrpq_test

// A table-driven conformance corpus for the conjunctive-match semantics of
// §3.1 and the fragment evaluators. Every case states a database, a query,
// the expected Boolean outcome or answer count, and which evaluator decides
// it; each case exercises a distinct semantic behaviour.

import (
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

type confCase struct {
	name  string
	db    string
	query string
	algo  string // "auto", "vsf", "bounded:<k>"
	// expectations: exactly one of wantBool / wantCount is used
	boolean   bool
	wantBool  bool
	wantCount int
}

var conformance = []confCase{
	{
		name:  "variable shared across edges, positive",
		db:    "u a v\nu a w",
		query: "ans()\nu1 v1 : $x{a|b}\nu1 w1 : $x",
		algo:  "auto", boolean: true, wantBool: true,
	},
	{
		name:  "variable shared across edges, negative (different symbols)",
		db:    "u a v\nu2 b w",
		query: "ans()\nu1 v1 : $x{a}\nw1 z1 : $x$x",
		algo:  "auto", boolean: true, wantBool: false,
	},
	{
		name:  "empty image allowed when definition yields ε",
		db:    "u c v",
		query: "ans()\nx y : $v{a*}c$v",
		algo:  "auto", boolean: true, wantBool: true,
	},
	{
		name:  "definition in untaken branch forces ε references",
		db:    "u b v\nv c w",
		query: "ans()\nx y : $z{a}|b\ny w : $z c",
		algo:  "vsf", boolean: true, wantBool: true,
	},
	{
		name:  "forced-ε reference cannot produce symbols",
		db:    "u b v\nv a w\nw c z",
		query: "ans()\nx y : $z{a}|b\ny w : $z c",
		algo:  "vsf", boolean: false, wantCount: 0,
	},
	{
		name:  "free variable shared between components",
		db:    "u a v\nw a z",
		query: "ans(x, y)\nx y : $f\nx2 y2 : $f",
		algo:  "auto", boolean: false,
		// projected on (x, y): f=ε forces x=y (4 tuples), f=a gives (u,v)
		// and (w,z); the second edge always has a matching pair: 6 total
		wantCount: 6,
	},
	{
		name:  "reference before definition within one component",
		db:    "s a m1\nm1 b m2\nm2 a m3\nm3 b t",
		query: "ans()\nx y : ($v)$v{ab}",
		algo:  "auto", boolean: true, wantBool: true,
	},
	{
		name:  "nested definitions compose",
		db:    "s b m\nm a t",
		query: "ans()\nx y : $o{$i{b}a}",
		algo:  "vsf", boolean: true, wantBool: true,
	},
	{
		name:  "nested definition image reused elsewhere",
		db:    "s b m\nm a t\nu b v",
		query: "ans()\nx y : $o{$i{b}a}\nx2 y2 : $i",
		algo:  "vsf", boolean: true, wantBool: true,
	},
	{
		name:  "negated class uses database alphabet",
		db:    "u c v\nu a w",
		query: "ans(x, y)\nx y : [^ab]",
		algo:  "auto", boolean: false, wantCount: 1,
	},
	{
		name:  "mutually exclusive double definition (G4-style)",
		db:    "u a v\nw a z",
		query: "ans()\nx y : $z1{a}|$z1{b}b\nx2 y2 : $z1",
		algo:  "vsf", boolean: true, wantBool: true,
	},
	{
		name:  "bounded image: exact length boundary",
		db:    "s # m0\nm0 a m1\nm1 a m2\nm2 b m3\nm3 a m4\nm4 a m5\nm5 # t",
		query: "ans()\nx y : #$v{a+}b$v#",
		algo:  "bounded:2", boolean: true, wantBool: true,
	},
	{
		name:  "bounded image: bound too small",
		db:    "s # m0\nm0 a m1\nm1 a m2\nm2 b m3\nm3 a m4\nm4 a m5\nm5 # t",
		query: "ans()\nx y : #$v{a+}b$v#",
		algo:  "bounded:1", boolean: true, wantBool: false,
	},
	{
		name:  "epsilon path matches length-0 (node to itself)",
		db:    "u a v",
		query: "ans(x, y)\nx y : a*",
		algo:  "auto", boolean: false,
		// ε on both nodes (2) + the a-edge (1)
		wantCount: 3,
	},
	{
		name:  "variable image can span multiple symbols",
		db:    "s a m1\nm1 b m2\nm2 c t\nu a n1\nn1 b n2\nn2 c w",
		query: "ans()\nx y : $v{abc}\nx2 y2 : $v",
		algo:  "auto", boolean: true, wantBool: true,
	},
	{
		name:  "conjunction constrains shared endpoint",
		db:    "u a v\nu b v\nw a z",
		query: "ans(x)\nx y : a\nx y : b",
		algo:  "auto", boolean: false, wantCount: 1,
	},
	{
		name:  "self-loop edge with same variable twice in one label",
		db:    "u a u",
		query: "ans()\nx x : $v{a}$v",
		algo:  "auto", boolean: true, wantBool: true,
	},
	{
		name:  "optional variable occurrence",
		db:    "u a v",
		query: "ans()\nx y : $v{b}?a",
		algo:  "vsf", boolean: true, wantBool: true,
	},
	{
		name:  "wildcard dot respects alphabet",
		db:    "u q v",
		query: "ans(x, y)\nx y : .",
		algo:  "auto", boolean: false, wantCount: 1,
	},
	{
		name:  "star over classical inside definition",
		db:    "s a m1\nm1 a m2\nm2 b t\nu a n1\nn1 a n2\nn2 b w",
		query: "ans()\nx y : $v{a*b}\nx2 y2 : $v",
		algo:  "auto", boolean: true, wantBool: true,
	},
}

func TestConformance(t *testing.T) {
	for _, c := range conformance {
		c := c
		t.Run(c.name, func(t *testing.T) {
			db := graph.MustParse(c.db)
			q := cxrpq.MustParse(c.query)
			var (
				count int
				ok    bool
				err   error
			)
			switch {
			case c.algo == "auto":
				if c.boolean {
					ok, err = verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "bool"}))
				} else {
					var res interface{ Len() int }
					res, err = tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
					if err == nil {
						count = res.Len()
					}
				}
			case c.algo == "vsf":
				if c.boolean {
					ok, err = verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "bool"}))
				} else {
					var res interface{ Len() int }
					res, err = tuples(cxrpq.Do(q, db, cxrpq.Request{Op: "eval"}))
					if err == nil {
						count = res.Len()
					}
				}
			case c.algo == "bounded:1":
				ok, err = verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "bool", Semantics: "bounded", K: 1}))
			case c.algo == "bounded:2":
				ok, err = verdict(cxrpq.Do(q, db, cxrpq.Request{Op: "bool", Semantics: "bounded", K: 2}))
			default:
				t.Fatalf("unknown algo %q", c.algo)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.boolean {
				if ok != c.wantBool {
					t.Fatalf("got %v, want %v", ok, c.wantBool)
				}
			} else if count != c.wantCount {
				t.Fatalf("got %d answers, want %d", count, c.wantCount)
			}
		})
	}
}

func TestUnionCXRPQ(t *testing.T) {
	// A union of CXRPQs (§7) is answered member by member: q(D) = ⋃ qi(D).
	db := graph.MustParse("u a v\nw b z")
	members := []*cxrpq.Query{
		cxrpq.MustParse("ans(x, y)\nx y : $v{a}$v?"),
		cxrpq.MustParse("ans(x, y)\nx y : b"),
	}
	union := func(req cxrpq.Request) *pattern.TupleSet {
		out := pattern.NewTupleSet()
		for _, m := range members {
			resp := cxrpq.Do(m, db, req)
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			out.AddAll(resp.Tuples)
		}
		return out
	}
	res := union(cxrpq.Request{Op: "eval"})
	if res.Len() != 2 {
		t.Fatalf("union answers = %v", res.Sorted())
	}
	if rb := union(cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1}); !rb.Equal(res) {
		t.Fatal("bounded union should agree here")
	}
}

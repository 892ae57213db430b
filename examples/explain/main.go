// Explain demonstrates witness extraction (the path-extraction capability
// sketched in §8 of the paper): instead of only the matched node tuple, the
// library reconstructs one full matching morphism — the matched path labels
// per query edge and the images of all string variables.
//
//	go run ./examples/explain
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
)

func main() {
	// A tiny social graph: follows (f) and mentions (m).
	db, err := graph.Parse(`
ana  f bob
bob  m cem
cem  f ana
ana  m dia
dia  f bob
`)
	if err != nil {
		log.Fatal(err)
	}

	// Two paths from two different starting points must use the same
	// two-step interaction pattern $p (e.g. both "fm" or both "mf").
	q, err := cxrpq.Parse(`
ans(a, b)
a z : $p{[fm][fm]}
b z : $p
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fragment:", q.Fragment())

	// One prepared session answers both requests.
	plan, err := cxrpq.Prepare(q)
	if err != nil {
		log.Fatal(err)
	}
	sess := plan.Bind(db)
	res := sess.Do(cxrpq.Request{Op: "eval"})
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	fmt.Printf("%d answers\n", res.Tuples.Len())

	why := sess.Do(cxrpq.Request{Op: "explain"})
	if why.Err != nil {
		log.Fatal(why.Err)
	}
	if !why.OK {
		fmt.Println("no match")
		return
	}
	ex := why.Explanation
	fmt.Println("one witness:")
	for _, v := range slices.Sorted(maps.Keys(ex.NodeOf)) {
		fmt.Printf("  node %s -> %s\n", v, db.Name(ex.NodeOf[v]))
	}
	for i, w := range ex.Words {
		fmt.Printf("  edge %d matched word %q\n", i, w)
	}
	fmt.Printf("  shared pattern $p = %q\n", ex.Images["p"])
}

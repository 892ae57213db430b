// Quickstart: parse a graph database and a CXRPQ, classify the query's
// fragment, and evaluate it with the strongest complete algorithm.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
)

func main() {
	// A small graph database: one edge "from label to" per line.
	db, err := graph.Parse(`
alice a bob
bob   a carol
alice b dave
dave  b erin
carol c erin
`)
	if err != nil {
		log.Fatal(err)
	}

	// G1 of Figure 2 of the paper, in this library's syntax: the string
	// variable $x is bound to a or b on the first edge and reused on the
	// second; the two paths must agree on the symbol.
	q, err := cxrpq.Parse(`
ans(v1, v2)
u v1 : $x{a|b}
u v2 : ($x|c)+
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query fragment:", q.Fragment())

	// G1 is not vstar-free ($x occurs under +), but its images are single
	// symbols, so CXRPQ^≤1 semantics are exact (§1.4 of the paper).
	resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 1})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	fmt.Printf("%d answers:\n", resp.Tuples.Len())
	for _, t := range resp.Tuples.Sorted() {
		fmt.Printf("  (v1=%s, v2=%s)\n", db.Name(t[0]), db.Name(t[1]))
	}

	// A vstar-free query is evaluated completely under the default
	// (fragment-dispatched) semantics.
	q2, err := cxrpq.Parse(`
ans(x, y)
x m : $v{a|b}
m y : $v|c
`)
	if err != nil {
		log.Fatal(err)
	}
	resp2 := cxrpq.Do(q2, db, cxrpq.Request{Op: "eval"})
	if resp2.Err != nil {
		log.Fatal(resp2.Err)
	}
	fmt.Printf("vstar-free query (%s): %d answers\n", q2.Fragment(), resp2.Tuples.Len())
}

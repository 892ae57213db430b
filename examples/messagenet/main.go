// Messagenet reproduces the hidden-communication scenario that motivates G3
// of Figure 2 in the paper: nodes are persons, arcs are text messages; some
// individuals hide their direct communication by encoding messages as
// sequences of simple messages routed through intermediaries. G3 finds
// pairs (v1, v2) that exchange message sequences x and y (of length ≥ 2)
// and both reach a mutual contact by repeating those sequences.
//
//	go run ./examples/messagenet
package main

import (
	"fmt"
	"log"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/workload"
)

func main() {
	// 12 persons with random chatter, plus 2 hidden pairs communicating via
	// secret 2-message sequences repeated twice towards a mutual contact.
	db := workload.MessageNetwork(7, 12, "ab", 2, 2, 2)
	fmt.Printf("message network: %d persons, %d messages\n", db.NumNodes(), db.NumEdges())

	// G3 of Figure 2: x and y are message sequences of length ≥ 2; the
	// paths to the mutual friend w are repetitions of those sequences.
	q, err := cxrpq.Parse(`
ans(v1, v2)
v1 v2 : $x{..+}
v2 v1 : $y{..+}
v1 w : ($x|$y)+
v2 w : ($x|$y)+
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query fragment:", q.Fragment(), "(variables under +: needs bounded-image semantics)")

	// The paper suggests reading G3 as a CXRPQ^≤k: secret sequences of
	// bounded length, but unboundedly many repetitions (§1.4).
	resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: 2})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	fmt.Printf("%d suspicious pairs:\n", resp.Tuples.Len())
	for _, t := range resp.Tuples.Sorted() {
		fmt.Printf("  %s <-> %s\n", db.Name(t[0]), db.Name(t[1]))
	}
}

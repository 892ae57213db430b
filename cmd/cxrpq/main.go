// Command cxrpq evaluates a CXRPQ (or CRPQ) on a graph database.
//
// Usage:
//
//	cxrpq -graph db.txt -query q.txt [-algo auto|vsf|bounded|log|any] [-k 3]
//
// The graph format is one edge per line: "from label to". The query format:
//
//	ans(x, y)
//	x y : a$v{a|b}b*
//	y z : $v+
//
// The flags make one cxrpq.Request: -algo its semantics, -explain its
// operation. The algorithm is chosen per the query's fragment by default
// (auto): CRPQ/simple/vstar-free queries get their complete algorithms; other
// queries require -algo bounded/log/any with the CXRPQ^≤k / CXRPQ^log
// semantics of §6 of the paper (-explain alone falls back to bounded -k for
// them). -algo any is bounded -k and notes whether longer images could exist.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
)

func main() {
	graphPath := flag.String("graph", "", "path to the graph database file")
	queryPath := flag.String("query", "", "path to the query file")
	algo := flag.String("algo", "auto", "evaluation algorithm: auto, vsf, bounded, log, any")
	k := flag.Int("k", 3, "image bound for -algo bounded/any")
	explain := flag.Bool("explain", false, "print one witness (matching words and variable images)")
	flag.Parse()
	if *graphPath == "" || *queryPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*graphPath, *queryPath, *algo, *k, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "cxrpq:", err)
		os.Exit(1)
	}
}

func run(graphPath, queryPath, algo string, k int, explain bool) error {
	gf, err := os.Open(graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	db, err := graph.Read(gf)
	if err != nil {
		return err
	}
	qb, err := os.ReadFile(queryPath)
	if err != nil {
		return err
	}
	q, err := cxrpq.Parse(string(qb))
	if err != nil {
		return err
	}
	fmt.Printf("fragment: %s  |q|=%d  |D|=%d\n", q.Fragment(), q.Size(), db.Size())

	// -algo picks the semantics and -explain the operation of one request;
	// "any" is the bounded eval plus a check of the image cap.
	req := cxrpq.Request{Op: "eval"}
	switch algo {
	case "auto", "vsf":
	case "bounded", "any":
		req.Semantics, req.K = "bounded", k
	case "log":
		req.Semantics = "log"
	default:
		return fmt.Errorf("unknown -algo %q", algo)
	}
	if explain {
		req.Op = "explain"
		if req.Semantics == "" && !q.IsVStarFree() {
			req.Semantics, req.K = "bounded", k
		}
	}
	resp := cxrpq.Do(q, db, req)
	if resp.Err != nil {
		return resp.Err
	}
	if explain {
		if !resp.OK {
			fmt.Println("no match to explain")
			return nil
		}
		ex := resp.Explanation
		fmt.Println("witness:")
		for _, v := range slices.Sorted(maps.Keys(ex.NodeOf)) {
			fmt.Printf("  node %s = %s\n", v, db.Name(ex.NodeOf[v]))
		}
		for i, w := range ex.Words {
			fmt.Printf("  edge %d word = %q\n", i, w)
		}
		for _, x := range slices.Sorted(maps.Keys(ex.Images)) {
			fmt.Printf("  $%s = %q\n", x, ex.Images[x])
		}
		return nil
	}
	if algo == "any" && db.HasPathOfLen(k+1) {
		fmt.Println("note: image cap reached; matches with longer variable images may be missing")
	}
	res := resp.Tuples
	if q.Pattern.IsBoolean() {
		if res.Len() > 0 {
			fmt.Println("D |= q: true")
		} else {
			fmt.Println("D |= q: false")
		}
		return nil
	}
	fmt.Printf("%d answer tuple(s):\n", res.Len())
	for _, t := range res.Sorted() {
		for i, v := range t {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(db.Name(v))
		}
		fmt.Println()
	}
	return nil
}

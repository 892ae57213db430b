// Command ecrpq evaluates an ECRPQ (CRPQ plus regular relations) on a graph
// database.
//
// Usage:
//
//	ecrpq -graph db.txt -query q.txt [-witness]
//
// The query format extends the CXRPQ pattern format with relation lines:
//
//	ans(x, y)
//	x y : (ab)+
//	u v : .*
//	rel equality 0 1
//	rel equal-length 0 1
//	rel prefix 0 1
//	rel hamming:2 0 1
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
)

func main() {
	graphPath := flag.String("graph", "", "path to the graph database file")
	queryPath := flag.String("query", "", "path to the query file")
	witness := flag.Bool("witness", false, "print one matching morphism with matching words")
	flag.Parse()
	if *graphPath == "" || *queryPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*graphPath, *queryPath, *witness); err != nil {
		fmt.Fprintln(os.Stderr, "ecrpq:", err)
		os.Exit(1)
	}
}

func run(graphPath, queryPath string, witness bool) error {
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
	q, err := ecrpq.ParseQuery(string(qb), db.Alphabet())
	if err != nil {
		return err
	}
	kind := "ECRPQ"
	if q.IsCRPQ() {
		kind = "CRPQ"
	} else if q.IsER() {
		kind = "ECRPQ^er"
	}
	fmt.Printf("class: %s  |q|=%d  |D|=%d\n", kind, q.Size(), db.Size())

	if witness {
		w, ok, err := ecrpq.FindWitness(q, db, nil, ecrpq.Options{})
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("no match")
			return nil
		}
		fmt.Println("witness:")
		for _, v := range slices.Sorted(maps.Keys(w.NodeOf)) {
			fmt.Printf("  node %s = %s\n", v, db.Name(w.NodeOf[v]))
		}
		for i, word := range w.Words {
			fmt.Printf("  edge %d word = %q\n", i, word)
		}
		return nil
	}

	res, err := ecrpq.Eval(q, db)
	if err != nil {
		return err
	}
	if q.Pattern.IsBoolean() {
		fmt.Println("D |= q:", res.Len() > 0)
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

package cxrpq

import (
	"math"
	"sort"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// The one-shot evaluation API. Do prepares the query (Prepare), binds it to
// the database (Plan.Bind) and runs Session.Do, so the single-call and
// prepared-session paths execute the same code; callers evaluating one query
// many times should hold the Plan/Session themselves and reuse the caches Do
// throws away. The other functions here are the paper's algorithms named as
// such: the Lemma 3 engine and the literal Theorem 6 guess.

// Do runs one request on q over db: Eval, Bool-Eval, Check or explain
// (Request.Op) under fragment dispatch, the ≤k semantics of Theorem 6 or the
// log semantics of Corollary 1 (Request.Semantics). Fragment dispatch runs
// the strongest complete algorithm for q's syntactic fragment — CRPQ
// evaluation for variable-free queries, the Lemma 3 engine for simple ones
// and the Theorem 2 union for vstar-free ones — and refuses an unrestricted
// query, whose image sizes only the bounded and log semantics cap.
func Do(q *Query, db *graph.DB, req Request) Response {
	p, err := Prepare(q)
	if err != nil {
		return Response{Err: err}
	}
	return p.Bind(db).Do(req)
}

// EvalSimple evaluates a CXRPQ with a simple conjunctive xregex (Lemma 3)
// by translating it to an ECRPQ^er and running the synchronized-product
// engine.
func EvalSimple(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	eq, err := SimpleToECRPQer(q, nil)
	if err != nil {
		return nil, err
	}
	return ecrpq.Eval(eq, db)
}

func logBound(db *graph.DB) int {
	size := db.Size()
	if size < 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(size))))
}

func catAll(c CXRE) xregex.Node {
	return &xregex.Cat{Kids: append([]xregex.Node(nil), c...)}
}

// EvalBoundedNaive is the literal Theorem 6 algorithm: it blindly guesses
// every v̄ ∈ (Σ^≤k)^n, instantiates (Lemma 11) and evaluates the CRPQ. It
// exists as the ablation baseline for the bounded engine's candidate pruning (the
// two must agree; see the ablation benchmark and the differential fuzz
// harness) and as the most direct rendering of the paper's proof.
func EvalBoundedNaive(q *Query, db *graph.DB, k int) (*pattern.TupleSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := q.CXRE()
	sigma := xregex.MergeAlphabets(db.Alphabet(), c.Alphabet())
	var vars []string
	for v := range c.Vars() {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	words := allWordsUpTo(sigma, k)
	out := pattern.NewTupleSet()
	assign := map[string]string{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			inst, err := q.InstantiateCRPQ(assign, sigma)
			if err != nil {
				return err
			}
			res, err := inst.Eval(db)
			if err != nil {
				return err
			}
			out.AddAll(res)
			return nil
		}
		for _, w := range words {
			assign[vars[i]] = w
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(assign, vars[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

func allWordsUpTo(sigma []rune, k int) []string {
	words := []string{""}
	level := []string{""}
	for i := 0; i < k; i++ {
		var next []string
		for _, w := range level {
			for _, r := range sigma {
				next = append(next, w+string(r))
			}
		}
		words = append(words, next...)
		level = next
	}
	return words
}

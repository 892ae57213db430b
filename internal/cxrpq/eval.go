package cxrpq

import (
	"math"
	"sort"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/xregex"
)

// The one-shot evaluation API. Every function here is a thin wrapper that
// prepares the query (Prepare), binds it to the database (Plan.Bind) and
// runs the corresponding Session method, so the single-call and
// prepared-session paths execute the same engines; callers evaluating one
// query many times should hold the Plan/Session themselves and reuse the
// caches the wrappers throw away.

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

// EvalVsf evaluates a vstar-free CXRPQ (Theorem 2 / Lemma 7): the
// alternation choices of Lemma 7's nondeterministic guessing are enumerated
// as branch combinations; each combination is normalized by Step 3 into a
// simple conjunctive xregex and evaluated via the ECRPQ^er engine. It is Eval
// under its historical name.
func EvalVsf(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Bind(db).EvalVsf()
}

// EvalVsfBool decides D |= q for vstar-free q, short-circuiting on the
// first matching branch combination.
func EvalVsfBool(q *Query, db *graph.DB) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	return p.Bind(db).EvalVsfBool()
}

// EvalBounded evaluates q under the CXRPQ^≤k semantics (Theorem 6):
// q^≤k(D), considering only matches whose variable images have length at
// most k. The nondeterministic guess of v̄ ∈ (Σ^≤k)^n is realized as an
// enumeration in ≺-topological order, pruned by two sound filters: every
// image must label a path of D, and every non-empty image of a defined
// variable must match one of its definition bodies with currently assigned
// variables substituted and the rest relaxed to Σ*. Each complete mapping is
// instantiated to a CRPQ via Lemma 11 and evaluated.
func EvalBounded(q *Query, db *graph.DB, k int) (*pattern.TupleSet, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Bind(db).EvalBounded(k)
}

// EvalBoundedBool decides D |=^≤k q, short-circuiting on the first mapping.
func EvalBoundedBool(q *Query, db *graph.DB, k int) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	return p.Bind(db).EvalBoundedBool(k)
}

// EvalLog evaluates q under CXRPQ^log semantics (Corollary 1):
// image size bounded by log2(|D|).
func EvalLog(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	return EvalBounded(q, db, logBound(db))
}

// EvalLogBool decides D |=^log q.
func EvalLogBool(q *Query, db *graph.DB) (bool, error) {
	return EvalBoundedBool(q, db, logBound(db))
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

// mergeDBAlphabet returns the combined alphabet of a database and a tuple.
func mergeDBAlphabet(db *graph.DB, c CXRE) []rune {
	return xregex.MergeAlphabets(db.Alphabet(), c.Alphabet())
}

// EvalBoundedNaive is the literal Theorem 6 algorithm: it blindly guesses
// every v̄ ∈ (Σ^≤k)^n, instantiates (Lemma 11) and evaluates the CRPQ. It
// exists as the ablation baseline for EvalBounded's candidate pruning (the
// two must agree; see the ablation benchmark and the differential fuzz
// harness) and as the most direct rendering of the paper's proof.
func EvalBoundedNaive(q *Query, db *graph.DB, k int) (*pattern.TupleSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := q.CXRE()
	sigma := mergeDBAlphabet(db, c)
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

// EvalAny evaluates an unrestricted CXRPQ soundly by capping variable-image
// length at maxImage. The paper leaves the decidability/upper bound of
// unrestricted evaluation open (§8) and shows it PSpace-hard even in data
// complexity (Theorem 1); results are complete for all matches whose images
// fit under the cap, and capped reports whether longer images are
// conceivable (i.e. D has paths longer than the cap).
func EvalAny(q *Query, db *graph.DB, maxImage int) (res *pattern.TupleSet, capped bool, err error) {
	res, err = EvalBounded(q, db, maxImage)
	if err != nil {
		return nil, false, err
	}
	// A word of length maxImage+1 labels a path iff D has a path that long;
	// one frontier sweep replaces the two full PathLabels enumerations.
	capped = db.HasPathOfLen(maxImage + 1)
	return res, capped, nil
}

// Eval dispatches to the strongest complete algorithm for q's syntactic
// fragment: CRPQ evaluation for variable-free queries, the Lemma 3 engine
// for simple queries, and the Theorem 2 algorithm for vstar-free queries.
// For unrestricted CXRPQs (image sizes unbounded) it returns an error
// directing callers to EvalBounded/EvalLog/EvalAny, whose semantics are the
// paper's ≤k / log fragments.
func Eval(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Bind(db).Eval()
}

// EvalBool is the Boolean counterpart of Eval.
func EvalBool(q *Query, db *graph.DB) (bool, error) {
	p, err := Prepare(q)
	if err != nil {
		return false, err
	}
	return p.Bind(db).EvalBool()
}

// SortedVarsOf is a helper returning the query's string variables sorted.
func SortedVarsOf(q *Query) []string {
	var vars []string
	for v := range q.CXRE().Vars() {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

package xregex

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePrintRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"ab",
		"a|b",
		"(a|b)+",
		"a*b?c+",
		"$x{a|b}",
		"$x{a|b}($x|c)+",
		"$x{aa|b}",
		"[abc]",
		"[^ab]*",
		".",
		".*",
		"()",
		"$x{$y{a*}b}$y",
		"\\+\\(",
		"$x1{a*$x2{(a|b)*}b*a*}$x2*(a|b)*$x1",
		// escaped space runes are symbols; unescaped, Parse skips them
		"a\\ b",
		"a\\\tb",
		"\\\n+",
		"\\\v|\\\r",
		"$x{\\\u0085}\\\u00a0$x",
		"\\\u2028\\\u3000",
	}
	for _, src := range cases {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out := String(n)
		n2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-Parse(%q) of %q: %v", out, src, err)
		}
		if String(n2) != out {
			t.Errorf("round trip not stable: %q -> %q -> %q", src, out, String(n2))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(",
		"a)",
		"$",
		"$x{a",
		"[ab",
		"+a",
		"*",
		"$x{a$x}",         // x ∈ var(body), violates Definition 3
		"$x{a}$x{b}",      // two definitions of x in one concatenation
		"($x{a})+",        // definition under + is not sequential
		"($x{a}|b)+",      // definition under + is not sequential
		"$x{$y{a}b$y{c}}", // nested double definition
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSequentialButMultipleDefsInAlternation(t *testing.T) {
	// G4 of Figure 2 has two mutually exclusive definitions of z — legal.
	n, err := Parse("$z{$x|$y}|$z{a*}")
	if err != nil {
		t.Fatalf("alternated double definition should be sequential: %v", err)
	}
	if !IsSequential(n) {
		t.Fatal("IsSequential = false")
	}
}

func TestClassifiersPaperExample4(t *testing.T) {
	// Example 4 of the paper, translated to our syntax.
	cases := []struct {
		src                      string
		vstar, valt, vsimp, simp bool
	}{
		// x{a*}(bx(c∨a))*b: not vstar-free, but valt-free
		{"$x{a*}(b$x(c|a))*b", false, true, false, false},
		// x{a*}y((bx)∨(ca))b*y: vstar-free, not valt-free
		{"$x{a*}$y((b$x)|(ca))b*$y", true, false, false, false},
		// ax{(b∨c)*by{dwa*}}bxa*z{d*}zy: variable-simple, not simple
		{"a$x{(b|c)*b$y{d$w a*}}b$x a*$z{d*}$z$y", true, true, true, false},
		// ax{(b∨c)*da}bxa*y{z}xy: simple
		{"a$x{(b|c)*da}b$x a*$y{$z}$x$y", true, true, true, true},
	}
	for _, c := range cases {
		n := MustParse(c.src)
		if got := IsVStarFree(n); got != c.vstar {
			t.Errorf("IsVStarFree(%s) = %v, want %v", c.src, got, c.vstar)
		}
		if got := IsValtFree(n); got != c.valt {
			t.Errorf("IsValtFree(%s) = %v, want %v", c.src, got, c.valt)
		}
		if got := IsVariableSimple(n); got != c.vsimp {
			t.Errorf("IsVariableSimple(%s) = %v, want %v", c.src, got, c.vsimp)
		}
		if got := IsSimple(n); got != c.simp {
			t.Errorf("IsSimple(%s) = %v, want %v", c.src, got, c.simp)
		}
	}
}

func TestAcyclicity(t *testing.T) {
	// α = x{a*}y{x} ∨ y{a*}x{y} is an xregex but ≺α is cyclic.
	n := MustParse("$x{a*}$y{$x}|$y{a*}$x{$y}")
	if IsAcyclic(n) {
		t.Fatal("expected cyclic variable relation")
	}
	m := MustParse("$x{a*}$y{$x}")
	if !IsAcyclic(m) {
		t.Fatal("expected acyclic variable relation")
	}
	order, err := TopoVars(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "x" {
		t.Fatalf("topo order = %v, want [x y]", order)
	}
}

// Example 1 of the paper: deref of a concrete ref-word.
func TestDerefPaperExample1(t *testing.T) {
	// w = a x4 a ⟨x1 ab ⟨x2 acc ⟩x2 a x2 x4 ⟩x1 ⟨x3 x1 a x2 ⟩x3 x3 b x1
	w := RefWord{
		{Kind: TSym, Sym: 'a'}, {Kind: TRef, Var: "x4"}, {Kind: TSym, Sym: 'a'},
		{Kind: TOpen, Var: "x1"},
		{Kind: TSym, Sym: 'a'}, {Kind: TSym, Sym: 'b'},
		{Kind: TOpen, Var: "x2"}, {Kind: TSym, Sym: 'a'}, {Kind: TSym, Sym: 'c'}, {Kind: TSym, Sym: 'c'}, {Kind: TClose, Var: "x2"},
		{Kind: TSym, Sym: 'a'}, {Kind: TRef, Var: "x2"}, {Kind: TRef, Var: "x4"},
		{Kind: TClose, Var: "x1"},
		{Kind: TOpen, Var: "x3"}, {Kind: TRef, Var: "x1"}, {Kind: TSym, Sym: 'a'}, {Kind: TRef, Var: "x2"}, {Kind: TClose, Var: "x3"},
		{Kind: TRef, Var: "x3"}, {Kind: TSym, Sym: 'b'}, {Kind: TRef, Var: "x1"},
	}
	word, vmap, err := Deref(w)
	if err != nil {
		t.Fatal(err)
	}
	// vmap_w = (abaccaacc, acc, abaccaaccaacc, ε)
	want := map[string]string{"x1": "abaccaacc", "x2": "acc", "x3": "abaccaaccaacc"}
	for k, v := range want {
		if vmap[k] != v {
			t.Errorf("vmap[%s] = %q, want %q", k, vmap[k], v)
		}
	}
	if _, ok := vmap["x4"]; ok {
		t.Errorf("x4 has no definition, should be absent from vmap")
	}
	// Definitions are replaced in place by their value (Definition 2), so
	// x3's definition contributes one copy and its reference another.
	wantWord := "a" + "a" + "abaccaacc" + "abaccaaccaacc" + "abaccaaccaacc" + "b" + "abaccaacc"
	if word != wantWord {
		t.Errorf("deref = %q, want %q", word, wantWord)
	}
}

func TestDerefInvalid(t *testing.T) {
	// axa ⟨x ayb ⟩x c ⟨y xa⟩  — overlapping/cyclic per paper examples
	bad := RefWord{
		{Kind: TOpen, Var: "x"}, {Kind: TRef, Var: "y"}, {Kind: TClose, Var: "x"},
		{Kind: TOpen, Var: "y"}, {Kind: TRef, Var: "x"}, {Kind: TClose, Var: "y"},
	}
	if _, _, err := Deref(bad); err == nil {
		t.Fatal("cyclic ref-word should fail validation")
	}
	unbalanced := RefWord{{Kind: TOpen, Var: "x"}}
	if _, _, err := Deref(unbalanced); err == nil {
		t.Fatal("unbalanced ref-word should fail validation")
	}
	double := RefWord{
		{Kind: TOpen, Var: "x"}, {Kind: TClose, Var: "x"},
		{Kind: TOpen, Var: "x"}, {Kind: TClose, Var: "x"},
	}
	if _, _, err := Deref(double); err == nil {
		t.Fatal("double definition should fail validation")
	}
}

// Example 2 of the paper: α = a*x1{a*x2{(a∨b)*}b*a*}x2*(a∨b)*x1 and the
// word wα = a⁴(ba)²(ab)³(ba)³a with two different witnesses.
func TestMatchPaperExample2(t *testing.T) {
	n := MustParse("a*$x1{a*$x2{(a|b)*}b*a*}$x2*(a|b)*$x1")
	w := "aaaa" + "baba" + "ababab" + "bababa" + "a"
	res, ok := Match(n, w, []rune("ab"))
	if !ok {
		t.Fatalf("w should match α")
	}
	// Verify the witness is internally consistent: re-instantiate and check.
	inst, err := InstantiateComponent(n, res.VMap, []rune("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Matches(inst, w, []rune("ab")); !ok {
		t.Fatal("witness mapping does not reproduce the match")
	}
	// With all variables allowed to be ε, L(α) = (a|b)*; check a witness
	// exists for "b" too (x1 = x2 = ε).
	if !MatchBool(n, "b", []rune("ab")) {
		t.Fatal("'b' should match with x1 = x2 = ε")
	}
}

// From Example 2: γ = x1{c*(x2{a*}∨x3{b*})}cx2cx3bx1 matches c²a²ca²cbc²a²
// with vmap (c²a², a², ε).
func TestMatchPaperExample2Gamma(t *testing.T) {
	n := MustParse("$x1{c*($x2{a*}|$x3{b*})}c $x2 c $x3 b $x1")
	w := "ccaa" + "c" + "aa" + "c" + "" + "b" + "ccaa"
	res, ok := Match(n, w, []rune("abc"))
	if !ok {
		t.Fatal("word should match γ")
	}
	if res.VMap["x1"] != "ccaa" || res.VMap["x2"] != "aa" || res.VMap["x3"] != "" {
		t.Fatalf("vmap = %v, want (ccaa, aa, ε)", res.VMap)
	}
}

func TestMatchBasicBackreference(t *testing.T) {
	n := MustParse("$x{(a|b)+}$x")
	sigma := []rune("ab")
	for _, c := range []struct {
		w  string
		ok bool
	}{
		{"abab", true}, {"aa", true}, {"ab", false}, {"abba", false}, {"", false},
	} {
		if got := MatchBool(n, c.w, sigma); got != c.ok {
			t.Errorf("match %q = %v, want %v", c.w, got, c.ok)
		}
	}
}

func TestMatchRefBeforeDef(t *testing.T) {
	// References may precede definitions in the ref-word sense: x ⟨x ab⟩.
	n := MustParse("($x)ab$x{ab}")
	sigma := []rune("ab")
	if !MatchBool(n, "ababab", sigma) {
		t.Fatal("ababab should match: x=ab referenced before its definition")
	}
	if MatchBool(n, "abab", sigma) {
		// leading ref must also produce ab
		t.Fatal("abab should not match")
	}
}

// The paper's cyclic example: α = x{a*}y{x} ∨ y{a*}x{y} is a valid xregex
// whose ≺ relation is cyclic; matching must still work (every individual
// ref-word is acyclic since the branches are mutually exclusive).
func TestMatchCyclicXregex(t *testing.T) {
	n := MustParse("$x{a*}$y{$x}|$y{a*}$x{$y}")
	if IsAcyclic(n) {
		t.Fatal("≺ should be cyclic for this xregex")
	}
	sigma := []rune("ab")
	// branch 1: x = a^k, y = x: word = a^k a^k
	if !MatchBool(n, "aaaa", sigma) {
		t.Fatal("aaaa should match (x=aa, y=x)")
	}
	if !MatchBool(n, "", sigma) {
		t.Fatal("ε should match (x=y=ε)")
	}
	if MatchBool(n, "aaa", sigma) {
		t.Fatal("odd-length a-word cannot be split into two equal halves")
	}
}

func TestMatchUndefinedVarIsEpsilon(t *testing.T) {
	n := MustParse("a$u b")
	if !MatchBool(n, "ab", []rune("ab")) {
		t.Fatal("undefined variable reference should vanish (ε)")
	}
	if MatchBool(n, "aub", []rune("abu")) {
		t.Fatal("undefined variable is not a symbol")
	}
}

func TestRefNFAEnumeration(t *testing.T) {
	n := MustParse("$x{a|b}c$x")
	rws := EnumerateRefWords(n, []rune("abc"), 6, 0)
	if len(rws) != 2 {
		t.Fatalf("expected 2 ref-words, got %d: %v", len(rws), rws)
	}
	for _, rw := range rws {
		w, vmap, err := Deref(rw)
		if err != nil {
			t.Fatal(err)
		}
		x := vmap["x"]
		if w != x+"c"+x {
			t.Errorf("deref(%v) = %q, inconsistent with x=%q", rw, w, x)
		}
	}
}

func TestCompileClassical(t *testing.T) {
	sigma := []rune("abc")
	cases := []struct {
		src  string
		w    string
		want bool
	}{
		{"a(b|c)*a", "abcba", true},
		{"a(b|c)*a", "aa", true},
		{"a(b|c)*a", "aba", true},
		{"a(b|c)*a", "ab", false},
		{"[^ab]+", "cc", true},
		{"[^ab]+", "cac", false},
		{".*", "", true},
		{".+", "", false},
		{"a?b", "b", true},
		{"a?b", "ab", true},
		{"[]", "", false}, // empty class = ∅
	}
	for _, c := range cases {
		ok, err := Matches(MustParse(c.src), c.w, sigma)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if ok != c.want {
			t.Errorf("Matches(%s, %q) = %v, want %v", c.src, c.w, ok, c.want)
		}
	}
}

func TestFromNFARoundTrip(t *testing.T) {
	sigma := []rune("ab")
	exprs := []string{"a", "(ab)+", "a*b*", "(a|b)*a", "ab|ba", "a+b+a+"}
	words := []string{"", "a", "b", "ab", "ba", "aab", "abab", "aba", "bba", "aabbaa"}
	for _, src := range exprs {
		n := MustParse(src)
		m := MustCompile(n, sigma)
		back := FromNFA(m)
		if !IsClassical(back) {
			t.Fatalf("FromNFA produced variables for %s", src)
		}
		for _, w := range words {
			want := m.AcceptsString(w)
			got, err := Matches(back, w, sigma)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: FromNFA language differs on %q (%v vs %v); back = %s", src, w, got, want, String(back))
			}
		}
	}
}

func TestIntersectionRegex(t *testing.T) {
	sigma := []rune("ab")
	inter, err := IntersectionRegex(sigma, MustParse("(ab)+"), MustParse("a(ba)*b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		w  string
		ok bool
	}{{"ab", true}, {"abab", true}, {"", false}, {"aab", false}} {
		got, err := Matches(inter, c.w, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.ok {
			t.Errorf("intersection on %q = %v want %v (expr %s)", c.w, got, c.ok, String(inter))
		}
	}
}

func TestExpandVariableSimple(t *testing.T) {
	// γ1 from the §5.1 walkthrough:
	// x{a*y{b*}az} ∨ (x{b*}·(z ∨ y{c*}))
	n := MustParse("$x{a*$y{b*}a$z}|($x{b*}($z|$y{c*}))")
	parts, err := ExpandVariableSimple(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("expected 3 variable-simple branches, got %d: %v", len(parts), renderAll(parts))
	}
	for _, p := range parts {
		if !IsVariableSimple(p) {
			t.Errorf("branch not variable-simple: %s", String(p))
		}
	}
	// A variable under + must be rejected.
	if _, err := ExpandVariableSimple(MustParse("($x a)+$x{b}")); err == nil {
		t.Fatal("expected vstar-free violation")
	}
}

func TestFactorize(t *testing.T) {
	n := MustParse("ab*$x{c*}d$x$y e")
	fs, err := Factorize(n)
	if err != nil {
		t.Fatal(err)
	}
	// ab* | def x | d | ref x | ref y | e  →  classical merged: ab*, def, d, $x, $y, e
	kinds := make([]FactorKind, len(fs))
	for i, f := range fs {
		kinds[i] = f.Kind
	}
	want := []FactorKind{FClassical, FDef, FClassical, FRef, FRef, FClassical}
	if len(kinds) != len(want) {
		t.Fatalf("factor kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("factor kinds = %v, want %v", kinds, want)
		}
	}
	if String(Simplify(FactorsNode(fs))) != String(Simplify(n)) {
		t.Errorf("FactorsNode does not rebuild: %s", String(FactorsNode(fs)))
	}
}

func TestInstantiateComponent(t *testing.T) {
	sigma := []rune("abc")
	// α1 from §6.1: x3{x1{ca*c}x2*} ∨ (x1{cb*}∨x1{x4c*})(b∨x2*)x3{x1x2x1*}
	n := MustParse("$x3{$x1{ca*c}$x2*}|($x1{cb*}|$x1{$x4 c*})(b|$x2*)$x3{$x1$x2$x1*}")
	v := map[string]string{"x1": "ca", "x2": "a", "x3": "caaca", "x4": "ca"}
	inst, err := InstantiateComponent(n, v, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !IsClassical(inst) {
		t.Fatalf("instantiation left variables: %s", String(inst))
	}
	// The paper's §6.1 walkthrough: β1 = ca(b|a*)caaca.
	for _, c := range []struct {
		w  string
		ok bool
	}{
		{"cabcaaca", true},  // ca · b · caaca
		{"caaacaaca", true}, // ca · aa · caaca (a* branch)
		{"cacaaca", true},   // ca · ε · caaca
		{"caacca", false},
		{"caaca", false},
	} {
		got, err := Matches(inst, c.w, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.ok {
			t.Errorf("instantiated β1 on %q = %v, want %v (inst=%s)", c.w, got, c.ok, String(inst))
		}
	}

	// α2 from §6.1: (x1∨x2)*x4{(b∨c)*x2*}x2{(a∨b)*a}
	n2 := MustParse("($x1|$x2)*$x4{(b|c)*$x2*}$x2{(a|b)*a}")
	inst2, err := InstantiateComponent(n2, v, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// β2 = ((ca)|a)*caa — e.g. "ca a caa" and "caa"... the last part is
	// x4=ca then x2=a: (ca|a)* · ca · a
	for _, c := range []struct {
		w  string
		ok bool
	}{
		{"caa", true},   // ε repetitions, then ca, then a
		{"cacaa", true}, // x1 once
		{"acaa", true},  // x2 once
		{"aacaa", true},
		{"cba", false},
	} {
		got, err := Matches(inst2, c.w, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.ok {
			t.Errorf("instantiated β2 on %q = %v, want %v (inst=%s)", c.w, got, c.ok, String(inst2))
		}
	}
}

func TestForceVar(t *testing.T) {
	n := MustParse("$x{a}b|cd")
	f := Simplify(ForceVar(n, "x"))
	// the cd branch must be cut
	if strings.Contains(String(f), "cd") {
		t.Fatalf("ForceVar kept a branch without the definition: %s", String(f))
	}
}

func TestSimplifyAlgebra(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a[]b", "[]"},
		{"a|[]", "a"},
		{"[]*", "()"},
		{"[]+", "[]"},
		{"[]?", "()"},
		{"()a()", "a"},
		{"$x{[]}", "[]"},
		{"(ab)(cd)", "abcd"},
		{"(a|b)|c", "a|b|c"},
	}
	for _, c := range cases {
		got := String(Simplify(MustParse(c.in)))
		if got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSizeAndVars(t *testing.T) {
	n := MustParse("$x{a|b}c$x")
	if Size(n) < 5 {
		t.Errorf("Size = %d seems too small", Size(n))
	}
	vs := SortedVars(n)
	if len(vs) != 1 || vs[0] != "x" {
		t.Errorf("vars = %v", vs)
	}
	if !DefinedVars(n)["x"] {
		t.Error("x should be defined")
	}
}

// Property: Simplify preserves the language of classical expressions.
func TestQuickSimplifyPreservesLanguage(t *testing.T) {
	sigma := []rune("ab")
	gen := func(seed int64) Node { return randClassical(seed, 4) }
	f := func(seed int64, wbits []bool) bool {
		n := gen(seed)
		s := Simplify(n)
		if len(wbits) > 6 {
			wbits = wbits[:6]
		}
		w := make([]byte, len(wbits))
		for i, b := range wbits {
			if b {
				w[i] = 'a'
			} else {
				w[i] = 'b'
			}
		}
		a, err1 := Matches(n, string(w), sigma)
		b, err2 := Matches(s, string(w), sigma)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: parse∘print is the identity on printed form.
func TestQuickPrintParseStable(t *testing.T) {
	f := func(seed int64) bool {
		n := randClassical(seed, 5)
		out := String(n)
		n2, err := Parse(out)
		if err != nil {
			return false
		}
		return String(n2) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randClassical deterministically generates a random classical expression.
func randClassical(seed int64, depth int) Node {
	s := uint64(seed)
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	var gen func(d int) Node
	gen = func(d int) Node {
		if d == 0 {
			switch next(4) {
			case 0:
				return &Sym{R: 'a'}
			case 1:
				return &Sym{R: 'b'}
			case 2:
				return &Eps{}
			default:
				return &Empty{}
			}
		}
		switch next(6) {
		case 0:
			return &Cat{Kids: []Node{gen(d - 1), gen(d - 1)}}
		case 1:
			return &Alt{Kids: []Node{gen(d - 1), gen(d - 1)}}
		case 2:
			return &Star{Kid: gen(d - 1)}
		case 3:
			return &Plus{Kid: gen(d - 1)}
		case 4:
			return &Opt{Kid: gen(d - 1)}
		default:
			return gen(0)
		}
	}
	return gen(depth)
}

func renderAll(ns []Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = String(n)
	}
	return out
}

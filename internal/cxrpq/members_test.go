package cxrpq

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/xregex"
)

func collectMembers(t *testing.T, p *Plan) []*ecrpq.Query {
	t.Helper()
	if p.unionErr != nil {
		t.Fatal(p.unionErr)
	}
	var out []*ecrpq.Query
	for i := 0; ; i++ {
		q, ok, err := p.members(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, q)
	}
}

// multiplyOut is Step 1 of the normal-form construction (Lemma 4) as the
// recursion that multiplies a vstar-free component out whole, in the order
// xregex.Branch decodes: the reference a plan's members are held to.
func multiplyOut(n xregex.Node) []xregex.Node {
	if !xregex.HasVars(n) {
		return []xregex.Node{n}
	}
	var out []xregex.Node
	switch t := n.(type) {
	case *xregex.Def:
		for _, b := range multiplyOut(t.Body) {
			out = append(out, &xregex.Def{Var: t.Var, Body: b})
		}
	case *xregex.Cat:
		out = []xregex.Node{&xregex.Eps{}}
		for _, k := range t.Kids {
			var next []xregex.Node
			for _, a := range out {
				for _, b := range multiplyOut(k) {
					next = append(next, xregex.Simplify(&xregex.Cat{Kids: []xregex.Node{a, b}}))
				}
			}
			out = next
		}
	case *xregex.Alt:
		for _, k := range t.Kids {
			out = append(out, multiplyOut(k)...)
		}
	case *xregex.Opt:
		out = append(multiplyOut(t.Kid), &xregex.Eps{})
	default:
		out = []xregex.Node{n}
	}
	return out
}

// odometer lists the branch combinations of branches in member order: the
// first component's branch varies slowest, the last one's fastest.
func odometer(branches [][]xregex.Node) []CXRE {
	combos := []CXRE{{}}
	for _, bs := range branches {
		var next []CXRE
		for _, c := range combos {
			for _, b := range bs {
				next = append(next, append(append(CXRE{}, c...), b))
			}
		}
		combos = next
	}
	return combos
}

// The member source of a Plan decodes member i when it is asked for: a CRPQ
// is its own pattern, a simple query its Lemma 3 translation, and a
// vstar-free query — under 1 024 combinations or 2^11 — the union
// VsfToUnionECRPQer collects, member by member, each the translation of the
// branch combination at its place in the odometer order. Past the last
// combination there is no member, and a plan that is not vstar-free has no
// member source.
func TestMembersDecoded(t *testing.T) {
	crpq := MustParse("ans(x, z)\nx y : a+\ny z : b")
	p := MustPrepare(crpq)
	if ms := collectMembers(t, p); len(ms) != 1 || ms[0].Pattern != crpq.Pattern || len(ms[0].Groups) != 0 {
		t.Fatalf("a CRPQ decodes to %v, want its own pattern", ms)
	}

	simple := MustParse("ans(x, z)\nx y : $w{a|b}b*\ny z : $w\n")
	want, err := SimpleToECRPQer(simple, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms := collectMembers(t, MustPrepare(simple)); len(ms) != 1 || ms[0].String() != want.String() {
		t.Fatalf("a simple query decodes to %v, want %v", ms, want)
	}

	var sb strings.Builder
	for i := 0; i < 11; i++ {
		sb.WriteString(strings.ReplaceAll("($aN{a}|$bN{b})", "N", string(rune('A'+i))))
	}
	for _, c := range []struct {
		src  string
		want int
	}{
		{"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n", 4},
		{"ans(x, z)\nx y : $w{a}|$v{b}|c\ny z : $w|$v|d\nz x : e|$w\n", 18}, // var-free combinations among them
		{"ans(x, y)\nx y : " + sb.String() + "\n", 1 << 11},
	} {
		p := MustPrepare(MustParse(c.src))
		got := collectMembers(t, p)
		u, err := VsfToUnionECRPQer(p.q)
		if err != nil {
			t.Fatal(err)
		}
		var branches [][]xregex.Node
		for _, n := range p.c {
			branches = append(branches, multiplyOut(n))
		}
		combos := odometer(branches)
		if len(got) != c.want || len(u.Members) != c.want || len(combos) != c.want {
			t.Fatalf("%q: %d members decoded, %d collected, %d combinations; want %d", c.src, len(got), len(u.Members), len(combos), c.want)
		}
		for i, combo := range combos {
			want := ""
			if len(combo.Vars()) == 0 {
				for ei, e := range got[i].Pattern.Edges {
					if e.Label != combo[ei] {
						t.Fatalf("%q: member %d labels edge %d %s, its combination %s", c.src, i, ei, xregex.String(e.Label), xregex.String(combo[ei]))
					}
				}
				want = got[i].String()
			} else if m := p.comboMember(combo); m.err != nil {
				t.Fatal(m.err)
			} else {
				want = m.tr.Query.String()
			}
			if got[i].String() != want || u.Members[i].String() != want {
				t.Fatalf("%q: member %d decodes to\n%v\ncollected as\n%v\nits combination translates to\n%v", c.src, i, got[i], u.Members[i], want)
			}
		}
		if _, ok := p.member(c.want); ok {
			t.Fatalf("%q: member %d decoded past the last combination", c.src, c.want)
		}
	}

	if MustPrepare(MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")).unionErr == nil {
		t.Fatal("a plan that is not vstar-free has a member source")
	}
}

// A plan holds one branch count per component and nothing multiplied out:
// the eleven-factor text of overCapQueries is one count of 2 048, and a query
// without string variables is its own member, built once, which a request
// takes without allocating.
func TestPlanHoldsCounts(t *testing.T) {
	wide := MustPrepare(MustParse(factors(11)))
	if !slices.Equal(wide.counts, []int{1 << 11}) || wide.own.tr != nil {
		t.Fatalf("the wide plan holds counts %v and member %v; want one count of 2048 and no member", wide.counts, wide.own.tr)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Plan{})) {
		if f.Name != "c" && strings.Contains(f.Type.String(), "xregex.Node") {
			t.Fatalf("a Plan keeps xregex nodes beside its query's: field %s %s", f.Name, f.Type)
		}
	}

	crpq := MustPrepare(MustParse("ans(x, z)\nx y : a+\ny z : b"))
	if q, ok, err := crpq.members(0); !ok || err != nil || q.Pattern != crpq.q.Pattern || len(q.Groups) != 0 {
		t.Fatalf("a CRPQ's member 0 is %v, %v, %v; want its own pattern", q, ok, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { crpq.members(0) }); allocs != 0 {
		t.Fatalf("a CRPQ's member 0 allocates %v objects per request, want 0", allocs)
	}
}

// factors is a text of n alternation factors ($aI{a}|$bI{b}) on one edge: a
// union of 2^n members.
func factors(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "($a%d{a}|$b%d{b})", i, i)
	}
	return "ans(x, y)\nx y : " + sb.String() + "\n"
}

// Step 1 of the normal form refuses a component of more branches than it
// builds, naming the count, instead of allocating them: 2^40 alike with a
// count saturated at math.MaxInt. (The 40-factor case allocates 2^40
// branches on a tree without the bound: never run it there.)
func TestNormalFormRefusesWideComponents(t *testing.T) {
	for _, tc := range []struct{ n, count int }{{70, math.MaxInt}, {40, 1 << 40}} {
		n, count := tc.n, tc.count
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c := MustParse(factors(n)).CXRE()
			_, err := Step1MultiplyOut(c)
			_, _, nfErr := NormalForm(c)
			for _, err := range []error{err, nfErr} {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprint(count)) {
					t.Fatalf("a %d-factor component: %v, want an error naming %d branches", n, err, count)
				}
			}
		})
	}
}

// A union of 2^40 members prepares in milliseconds, is cut by a 50 ms budget
// in well under a second, and decodes any member on its own: member 2^39 is
// the combination the odometer gives, b in the first factor and a in the
// rest.
func TestWideUnionBounded(t *testing.T) {
	start := time.Now()
	p, err := PrepareSrc(factors(40))
	if took := time.Since(start); err != nil || took > 100*time.Millisecond {
		t.Fatalf("a 40-factor text prepares in %v, %v", took, err)
	}
	db, err := graph.Parse("n0 a n1\nn1 b n2\nn2 a n0\nn1 a n0\n")
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	res := p.Bind(db).Do(Request{Op: "eval", Budget: engine.NewBudget(nil, start.Add(50*time.Millisecond))})
	if took := time.Since(start); !errors.Is(res.Err, engine.ErrCanceled) || took > time.Second {
		t.Fatalf("a 40-factor eval under a 50 ms budget returned %v after %v; want engine.ErrCanceled within 1 s", res.Err, took)
	}

	want := "$b0{b}"
	for i := 1; i < 40; i++ {
		want += fmt.Sprintf("$a%d{a}", i)
	}
	m, ok := p.member(1 << 39)
	ref := p.comboMember(CXRE{xregex.MustParse(want)})
	if !ok || m.err != nil || ref.err != nil {
		t.Fatalf("member 2^39: %v, %v; the odometer's combination %s: %v", ok, m.err, want, ref.err)
	}
	if m.tr.Query.String() != ref.tr.Query.String() {
		t.Fatalf("member 2^39 decodes to\n%v\nthe odometer's combination %s to\n%v", m.tr.Query, want, ref.tr.Query)
	}
}

// Branch counts past math.MaxInt saturate instead of wrapping: a 70-factor
// component counts math.MaxInt, and member 0 and member math.MaxInt, the last
// index an int reaches, both decode, with no digit divided by zero.
func TestWideUnionSaturates(t *testing.T) {
	p, err := PrepareSrc(factors(70) + "y z : $a0|c\n")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.counts, []int{math.MaxInt, 2}) {
		t.Fatalf("a 70-factor text counts %v, want [math.MaxInt 2]", p.counts)
	}
	for _, i := range []int{0, math.MaxInt} {
		if m, ok := p.member(i); !ok || m.err != nil {
			t.Fatalf("member %d: %v, %v", i, ok, m.err)
		}
	}
}

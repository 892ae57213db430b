package cxrpq

import (
	"strings"
	"testing"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/xregex"
)

func collectMembers(t *testing.T, p *Plan) []*ecrpq.Query {
	t.Helper()
	ms, err := p.members()
	if err != nil {
		t.Fatal(err)
	}
	var out []*ecrpq.Query
	for i := 0; ; i++ {
		q, ok, err := ms(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, q)
	}
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
		combos := odometer(p.branches)
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

	if _, err := MustPrepare(MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")).members(); err == nil {
		t.Fatal("a plan that is not vstar-free has a member source")
	}
}

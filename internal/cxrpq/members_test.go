package cxrpq

import (
	"strings"
	"testing"

	"cxrpq/internal/ecrpq"
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

// The member source of a Plan: the translation runs once per Plan while the
// members are kept (ranging it twice yields the same queries), and afresh per
// range beyond the cap, where all that is remembered is that there are too
// many. A plan that is not vstar-free has no members.
func TestMemberSourceTranslatesOncePerPlan(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int
	}{
		{"ans(x, z)\nx y : a+\ny z : b", 1},
		{"ans(x, z)\nx y : $w{a|b}b*\ny z : $w\n", 1},
		{"ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n", 4},
	} {
		p := MustPrepare(MustParse(c.src))
		a, b := collectMembers(t, p), collectMembers(t, p)
		if len(a) != c.want || len(b) != c.want {
			t.Fatalf("%q: %d and %d members, want %d", c.src, len(a), len(b), c.want)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: member %d was translated again by the second range", c.src, i)
			}
		}
	}

	var sb strings.Builder
	for i := 0; i < 11; i++ {
		sb.WriteString(strings.ReplaceAll("($aN{a}|$bN{b})", "N", string(rune('A'+i))))
	}
	p := MustPrepare(MustParse("ans(x, y)\nx y : " + sb.String() + "\n"))
	a, b := collectMembers(t, p), collectMembers(t, p)
	if len(a) != 1<<11 || len(b) != 1<<11 || !p.overCap || p.kept != nil {
		t.Fatalf("over the cap: %d and %d members (overCap=%v, %d kept), want 2048 twice and none kept", len(a), len(b), p.overCap, len(p.kept))
	}
	if a[0] == b[0] {
		t.Fatal("over the cap: a member outlived the range that translated it")
	}

	if _, err := MustPrepare(MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")).members(); err == nil {
		t.Fatal("a plan that is not vstar-free has a member source")
	}
}

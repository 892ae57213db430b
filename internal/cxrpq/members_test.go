package cxrpq

import (
	"strings"
	"testing"

	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

func collectMembers(t *testing.T, p *Plan) []*ecrpq.Query {
	t.Helper()
	ms, err := p.members()
	if err != nil {
		t.Fatal(err)
	}
	var out []*ecrpq.Query
	for q, err := range queries(ms) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
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

// A union member that panics on a fan worker fails the request that ran it —
// on the goroutine that called Session.Do, where a server's per-request
// recover sees it — and nothing else: the next request on the same session
// answers. Each round drops the database's store first, so that the poisoned
// requests evaluate instead of reading the answers filed before them.
func TestFanPanicFailsOneRequest(t *testing.T) {
	db := graph.MustParse("u a v\nv b w\nu b w")
	p := MustPrepare(MustParse("ans(x, z)\nx y : $w{a}|$v{b}\ny z : $w|$v\n"))
	first := p.Bind(db).Do(Request{Op: "eval"})
	want := first.Tuples
	if first.Err != nil || want.Len() == 0 {
		t.Fatalf("fixture: %v, %v", want, first.Err)
	}
	healthy := p.kept[2].tr.Query
	sess := p.BindWorkers(db, 4)
	// Operations no witness cuts short, so that the poisoned member does run.
	u, _ := db.Lookup("u")
	if want.Contains(pattern.Tuple{u, u}) {
		t.Fatal("fixture: (u, u) is an answer")
	}
	for _, req := range []Request{{Op: "eval"}, {Op: "check", Tuple: pattern.Tuple{u, u}}} {
		op := req.Op
		sess.Invalidate()
		p.kept[2].tr.Query = &ecrpq.Query{} // no pattern: evaluating it dereferences nil
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: the poisoned member did not panic on the caller", op)
				}
			}()
			sess.Do(req)
		}()
		p.kept[2].tr.Query = healthy
		if resp := sess.Do(Request{Op: "eval"}); resp.Err != nil || !resp.Tuples.Equal(want) {
			t.Fatalf("%s: the request after the panic = %v, %v; want %v", op, resp.Tuples, resp.Err, want.Sorted())
		}
	}
}

// Package separations implements the expressiveness separations of §7
// (Figure 5) as executable artefacts: the separating queries q_anbn and
// q_anan (Theorems 9 and 10, Figure 6), q1 and q2 (Lemmas 15 and 16,
// Figure 7), and the witness database families on which the proofs pump.
// The experiment harness evaluates them to demonstrate the separations
// empirically: the separating query distinguishes databases that every
// candidate of the weaker class must (per the pumping argument) confuse.
package separations

import (
	"strings"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// QAnBn is the ECRPQ of Theorem 9 (Figure 6): two disjoint arcs
// x -c·a*·c-> z and x' -d·b*·d-> z' whose a*/b* segments are constrained to
// have equal length. ⟦q_anbn⟧ ∉ ⟦ECRPQ^er⟧.
func QAnBn() *ecrpq.Query {
	return &ecrpq.Query{
		Pattern: pattern.MustParseQuery(`
ans()
x y1 : c
y1 y2 : a*
y2 z : c
xp w1 : d
w1 w2 : b*
w2 zp : d
`),
		Groups: []ecrpq.Group{{Edges: []int{1, 4}, Rel: ecrpq.EqualLength(2, []rune("ab"))}},
	}
}

// QAnAn is the ECRPQ^er of Theorem 9: as q_anbn but both segments are a*
// and must be equal. ⟦q_anan⟧ ∉ ⟦CRPQ⟧.
func QAnAn() *ecrpq.Query {
	return &ecrpq.Query{
		Pattern: pattern.MustParseQuery(`
ans()
x y1 : c
y1 y2 : a*
y2 z : c
xp w1 : d
w1 w2 : a*
w2 zp : d
`),
		Groups: []ecrpq.Group{{Edges: []int{1, 4}, Rel: &ecrpq.Equality{N: 2}}},
	}
}

// DnMPaths is the witness family of Theorem 9: two node-disjoint paths
// labelled c a^n c and d b^m d (secondLabel 'b'), or c a^n c and d a^m d
// (secondLabel 'a').
func DnMPaths(n, m int, secondLabel rune) *graph.DB {
	d := graph.New()
	r0 := d.Node("r0")
	rt := d.Node("rt")
	d.AddPath(r0, "c"+strings.Repeat("a", n)+"c", rt)
	s0 := d.Node("s0")
	st := d.Node("st")
	d.AddPath(s0, "d"+strings.Repeat(string(secondLabel), m)+"d", st)
	return d
}

// Q1 is the CXRPQ^≤1 of Lemma 15 (Figure 7): u1 -x{a|b}-> u2 <-d- u3
// -(x|c)-> u4. ⟦q1⟧ ∉ ⟦CRPQ⟧ even though the variable image is bounded
// by 1.
func Q1() *cxrpq.Query {
	return cxrpq.MustParse(`
ans()
u1 u2 : $x{a|b}
u3 u2 : d
u3 u4 : $x|c
`)
}

// DSigma is the witness family for Lemma 15: nodes v1..v4 with arcs
// (v1, σ1, v2), (v3, d, v2), (v3, σ2, v4).
func DSigma(s1, s2 rune) *graph.DB {
	d := graph.New()
	v1, v2, v3, v4 := d.Node("v1"), d.Node("v2"), d.Node("v3"), d.Node("v4")
	d.AddEdge(v1, s1, v2)
	d.AddEdge(v3, 'd', v2)
	d.AddEdge(v3, s2, v4)
	return d
}

// Q2 is the CXRPQ of Lemma 16 (Figure 7): a single edge labelled
// #y{x{a+b}x*}cy#. D |= q2 iff D has a path labelled
// #(a^{n1}b)^{n2}c(a^{n1}b)^{n2}# for some n1, n2 ≥ 1.
// ⟦q2⟧ ∉ ⟦ECRPQ^er⟧.
func Q2() *cxrpq.Query {
	return cxrpq.MustParse(`
ans()
u1 u2 : #$y{$x{a+b}$x*}c$y#
`)
}

// Q2Witness builds the single-path database labelled
// #(a^n1 b)^n2 c (a^n1 b)^n2 #.
func Q2Witness(n1, n2 int) *graph.DB {
	block := strings.Repeat("a", n1) + "b"
	word := "#" + strings.Repeat(block, n2) + "c" + strings.Repeat(block, n2) + "#"
	d := graph.New()
	s := d.Node("s")
	t := d.Node("t")
	d.AddPath(s, word, t)
	return d
}

// Q2WitnessBroken builds a near-miss path where the two block counts (or
// block lengths) differ, which q2 must reject.
func Q2WitnessBroken(n1, n2 int) *graph.DB {
	block := strings.Repeat("a", n1) + "b"
	block2 := strings.Repeat("a", n1+1) + "b"
	word := "#" + strings.Repeat(block, n2) + "c" + strings.Repeat(block2, n2) + "#"
	d := graph.New()
	s := d.Node("s")
	t := d.Node("t")
	d.AddPath(s, word, t)
	return d
}

// CRPQSurrogateForQ1 is the best CRPQ approximation of q1 obtained by
// relaxing the variable to its domain (a|b): the Lemma 15 proof shows any
// CRPQ equivalent to q1 leads to a contradiction; this surrogate witnesses
// the failure mode concretely (it wrongly accepts D_{a,b}).
func CRPQSurrogateForQ1() *cxrpq.Query {
	return cxrpq.MustParse(`
ans()
u1 u2 : a|b
u3 u2 : d
u3 u4 : a|b|c
`)
}

// DescribeFigure5 returns the inclusion diagram edges of Figure 5 with
// machine-checkable status labels, used by experiment E11.
func DescribeFigure5() []string {
	return []string{
		"CRPQ ⊊ ECRPQ^er (Theorem 9, witness q_anan)",
		"ECRPQ^er ⊊ ECRPQ (Theorem 9, witness q_anbn)",
		"CRPQ ⊆ CXRPQ^≤k (by definition)",
		"CXRPQ^≤k ⊋ CRPQ (Lemma 15, witness q1)",
		"ECRPQ^er ⊆ CXRPQ^vsf,fl (Lemma 12)",
		"CXRPQ^vsf,fl ⊆ CXRPQ^vsf ⊆ CXRPQ (by definition)",
		"CXRPQ ⊋ ECRPQ^er (Lemma 16, witness q2)",
		"CXRPQ^≤k ⊆ ∪-CRPQ (Lemma 14)",
		"CXRPQ^vsf ⊆ ∪-ECRPQ^er (Lemma 13)",
		"∪-CRPQ ⊊ ∪-ECRPQ^er ⊊ ∪-ECRPQ (Theorem 10)",
	}
}

package automata

import (
	"testing"
	"testing/quick"
)

func TestDeterminize(t *testing.T) {
	m := abNFA() // (ab)+
	d := m.Determinize(nil)
	for _, c := range []struct {
		w    string
		want bool
	}{{"", false}, {"ab", true}, {"abab", true}, {"aba", false}, {"ba", false}} {
		word := make([]int32, 0, len(c.w))
		for _, r := range c.w {
			word = append(word, int32(r))
		}
		if got := d.Accepts(word); got != c.want {
			t.Errorf("DFA accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
	if d.Step(d.Start(), int32('z')) != -1 {
		t.Error("symbol outside alphabet should return -1")
	}
}

func TestComplement(t *testing.T) {
	m := abNFA()
	comp := m.Determinize(nil).Complement()
	words := []string{"", "ab", "abab", "a", "b", "ba", "abb"}
	for _, w := range words {
		word := make([]int32, 0, len(w))
		for _, r := range w {
			word = append(word, int32(r))
		}
		if m.Accepts(word) == comp.Accepts(word) {
			t.Errorf("complement agrees with original on %q", w)
		}
	}
}

func TestEquivalent(t *testing.T) {
	// (ab)+ vs ab(ab)* — equivalent
	a := abNFA()
	b := New(3)
	b.AddTr(0, int32('a'), 1)
	b.AddTr(1, int32('b'), 2)
	b.AddTr(2, Epsilon, 0)
	b.SetFinal(2, true)
	if !Equivalent(a, b) {
		t.Fatal("(ab)+ variants should be equivalent")
	}
	// (ab)+ vs (ab)* — differ on ε
	c := b.Clone()
	c.SetFinal(0, true)
	if Equivalent(a, c) || Equivalent(c, a) {
		t.Fatal("(ab)+ and (ab)* differ")
	}
}

func TestToNFARoundTrip(t *testing.T) {
	m := abNFA()
	back := m.Determinize(nil).ToNFA()
	if !Equivalent(m, back) {
		t.Fatal("determinize/ToNFA changed the language")
	}
}

// Property: determinization preserves acceptance on random words.
func TestQuickDeterminizePreserves(t *testing.T) {
	m := abNFA()
	d := m.Determinize(nil)
	f := func(bits []bool) bool {
		if len(bits) > 10 {
			bits = bits[:10]
		}
		word := make([]int32, len(bits))
		for i, b := range bits {
			if b {
				word[i] = int32('a')
			} else {
				word[i] = int32('b')
			}
		}
		return m.Accepts(word) == d.Accepts(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

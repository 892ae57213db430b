package automata

import (
	"testing"
	"testing/quick"
)

// abNFA returns an NFA for the language (ab)+ over runes.
func abNFA() *NFA {
	m := New(3)
	m.AddTr(0, int32('a'), 1)
	m.AddTr(1, int32('b'), 2)
	m.AddTr(2, Epsilon, 0)
	m.SetFinal(2, true)
	return m
}

func TestAcceptsBasic(t *testing.T) {
	m := abNFA()
	cases := []struct {
		w    string
		want bool
	}{
		{"", false}, {"ab", true}, {"abab", true}, {"a", false},
		{"ba", false}, {"ababab", true}, {"abb", false},
	}
	for _, c := range cases {
		if got := m.AcceptsString(c.w); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestEpsClosure(t *testing.T) {
	m := New(4)
	m.AddTr(0, Epsilon, 1)
	m.AddTr(1, Epsilon, 2)
	m.AddTr(2, int32('a'), 3)
	got := m.EpsClosure(0)
	if len(got) != 3 || !got.Contains(0) || !got.Contains(1) || !got.Contains(2) {
		t.Fatalf("EpsClosure(0) = %v, want {0,1,2}", got)
	}
	if got.Contains(3) {
		t.Fatalf("closure must not cross labelled transition")
	}
}

func TestIsEmpty(t *testing.T) {
	m := New(2)
	m.AddTr(0, int32('a'), 1)
	if !m.IsEmpty() {
		t.Fatal("no final state: language should be empty")
	}
	m.SetFinal(1, true)
	if m.IsEmpty() {
		t.Fatal("final state reachable: language should be non-empty")
	}
	// Unreachable final state.
	m2 := New(3)
	m2.SetFinal(2, true)
	m2.AddTr(1, int32('a'), 2)
	if !m2.IsEmpty() {
		t.Fatal("final state unreachable: language should be empty")
	}
}

func TestTrimPreservesLanguage(t *testing.T) {
	m := abNFA()
	// Add junk: unreachable state and a dead-end state.
	dead := m.AddState()
	m.AddTr(0, int32('z'), dead)
	junk := m.AddState()
	m.AddTr(junk, int32('a'), junk)
	trimmed := m.Trim()
	if trimmed.NumStates() >= m.NumStates() {
		t.Fatalf("trim did not remove states: %d vs %d", trimmed.NumStates(), m.NumStates())
	}
	for _, w := range []string{"", "ab", "abab", "z", "zab"} {
		if m.AcceptsString(w) != trimmed.AcceptsString(w) {
			t.Errorf("trim changed acceptance of %q", w)
		}
	}
}

func wordNFA(w string) *NFA {
	rs := []rune(w)
	m := New(len(rs) + 1)
	for i, r := range rs {
		m.AddTr(i, int32(r), i+1)
	}
	m.SetFinal(len(rs), true)
	return m
}

func TestIntersect(t *testing.T) {
	// (ab)+ ∩ {abab} = {abab}
	p := Intersect(abNFA(), wordNFA("abab"))
	if !p.AcceptsString("abab") {
		t.Fatal("intersection should accept abab")
	}
	if p.AcceptsString("ab") {
		t.Fatal("intersection should not accept ab")
	}
	// (ab)+ ∩ {ba} = ∅
	q := Intersect(abNFA(), wordNFA("ba"))
	if !q.IsEmpty() {
		t.Fatal("intersection with ba should be empty")
	}
}

func TestIntersectAll(t *testing.T) {
	m := IntersectAll(abNFA(), abNFA(), wordNFA("ab"))
	w := m.EnumerateWords(6, 0)
	if len(w) != 1 || string([]rune{rune(w[0][0]), rune(w[0][1])}) != "ab" {
		t.Fatalf("words = %v; want ab alone", w)
	}
}

func TestEnumerateWords(t *testing.T) {
	m := abNFA()
	words := m.EnumerateWords(6, 0)
	if len(words) != 3 { // ab, abab, ababab
		t.Fatalf("EnumerateWords = %d words, want 3", len(words))
	}
	if len(words[0]) != 2 || len(words[1]) != 4 || len(words[2]) != 6 {
		t.Fatalf("words not in length order: %v", words)
	}
	if got := m.EnumerateWords(6, 2); len(got) != 2 {
		t.Fatalf("maxCount not honoured: %d", len(got))
	}
}

func TestLabels(t *testing.T) {
	m := abNFA()
	ls := m.Labels()
	if len(ls) != 2 || ls[0] != int32('a') || ls[1] != int32('b') {
		t.Fatalf("Labels = %v", ls)
	}
}

// Property: for random words over {a,b}, acceptance by (ab)+ equals the
// direct string check, and Trim/Clone never change acceptance.
func TestQuickAcceptAgainstSpec(t *testing.T) {
	m := abNFA()
	trimmed := m.Trim()
	cloned := m.Clone()
	spec := func(w string) bool {
		if len(w) == 0 || len(w)%2 != 0 {
			return false
		}
		for i := 0; i < len(w); i += 2 {
			if w[i] != 'a' || w[i+1] != 'b' {
				return false
			}
		}
		return true
	}
	f := func(bits []bool) bool {
		if len(bits) > 12 {
			bits = bits[:12]
		}
		w := make([]byte, len(bits))
		for i, b := range bits {
			if b {
				w[i] = 'a'
			} else {
				w[i] = 'b'
			}
		}
		s := string(w)
		want := spec(s)
		return m.AcceptsString(s) == want &&
			trimmed.AcceptsString(s) == want &&
			cloned.AcceptsString(s) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStateSetKeyInjective: the binary Key must separate state sets that a
// naive byte concatenation would conflate (varints are self-delimiting).
func TestStateSetKeyInjective(t *testing.T) {
	sets := []StateSet{
		{}, {0}, {1}, {0, 1}, {1, 2}, {128}, {1, 28}, {12, 8},
		{127}, {127, 128}, {16384}, {0, 16384},
	}
	seen := map[string]int{}
	for i, s := range sets {
		k := s.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("sets %v and %v share key %q", sets[j], s, k)
		}
		seen[k] = i
	}
}

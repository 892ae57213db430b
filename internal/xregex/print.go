package xregex

import (
	"strings"
	"unicode"
)

// String renders n in the syntax accepted by Parse, with parentheses only
// where required by operator precedence (atom > repetition > concatenation >
// alternation). The output of String parses back to a structurally
// equivalent tree (modulo re-flattening of Cat/Alt).
func String(n Node) string {
	var b strings.Builder
	printNode(&b, n, precAlt)
	return b.String()
}

const (
	precAlt = iota
	precCat
	precRep
	precAtom
)

func printNode(b *strings.Builder, n Node, ctx int) {
	switch t := n.(type) {
	case *Empty:
		b.WriteString("[]")
	case *Eps:
		b.WriteString("()")
	case *Sym:
		if isReserved(t.R) || unicode.IsSpace(t.R) { // Parse skips unescaped space
			b.WriteByte('\\')
		}
		b.WriteRune(t.R)
	case *Class:
		if t.Neg && len(t.Set) == 0 {
			b.WriteByte('.')
			return
		}
		b.WriteByte('[')
		if t.Neg {
			b.WriteByte('^')
		}
		for _, r := range t.Set {
			if r == ']' || r == '\\' || r == '^' {
				b.WriteByte('\\')
			}
			b.WriteRune(r)
		}
		b.WriteByte(']')
	case *Ref:
		b.WriteByte('$')
		b.WriteString(t.Var)
	case *Def:
		b.WriteByte('$')
		b.WriteString(t.Var)
		b.WriteByte('{')
		printNode(b, t.Body, precAlt)
		b.WriteByte('}')
	case *Cat:
		if ctx > precCat {
			b.WriteByte('(')
		}
		for i, k := range t.Kids {
			// A bare Ref followed by a name rune would merge into the
			// reference token; parenthesize the ref to keep round-trips safe.
			if r, ok := k.(*Ref); ok && i+1 < len(t.Kids) && startsWithNameRune(t.Kids[i+1]) {
				b.WriteString("($")
				b.WriteString(r.Var)
				b.WriteByte(')')
				continue
			}
			printNode(b, k, precRep)
		}
		if ctx > precCat {
			b.WriteByte(')')
		}
	case *Alt:
		if ctx > precAlt {
			b.WriteByte('(')
		}
		for i, k := range t.Kids {
			if i > 0 {
				b.WriteByte('|')
			}
			printNode(b, k, precCat)
		}
		if ctx > precAlt {
			b.WriteByte(')')
		}
	case *Plus:
		printNode(b, t.Kid, precAtom)
		b.WriteByte('+')
	case *Star:
		printNode(b, t.Kid, precAtom)
		b.WriteByte('*')
	case *Opt:
		printNode(b, t.Kid, precAtom)
		b.WriteByte('?')
	default:
		b.WriteString("<?>")
	}
}

func startsWithNameRune(n Node) bool {
	switch t := n.(type) {
	case *Sym:
		return isNameRune(t.R)
	case *Cat:
		if len(t.Kids) > 0 {
			return startsWithNameRune(t.Kids[0])
		}
	case *Plus:
		return startsWithNameRune(t.Kid)
	case *Star:
		return startsWithNameRune(t.Kid)
	case *Opt:
		return startsWithNameRune(t.Kid)
	}
	return false
}

// Equal reports structural equality of two trees after simplification and
// canonical flattening; it is a syntactic check used in tests, not language
// equivalence.
func Equal(a, b Node) bool { return String(Simplify(a)) == String(Simplify(b)) }

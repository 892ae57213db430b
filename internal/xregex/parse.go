package xregex

import (
	"fmt"
	"unicode"
)

// Parse parses an xregex in the textual syntax of this library:
//
//	a b 0 …        terminal symbols (any non-reserved, non-space rune)
//	$x             reference of variable x
//	$x{α}          definition of variable x
//	αβ             concatenation
//	α|β            alternation (the paper's ∨)
//	α+  α*  α?     repetition (α* = α+ ∨ ε, α? = α ∨ ε as in the paper)
//	(α)            grouping; () is ε
//	[abc] [^ab] .  character classes and the Σ-wildcard
//	\(             escaped reserved symbol
//
// Whitespace between tokens is ignored. Variable names consist of letters,
// digits and underscores. Parse validates that the result is a well-formed
// xregex per Definition 3 (no definition x{α} with x ∈ var(α)) and that it
// is sequential (§3); it does not require acyclicity, which is a property of
// conjunctive tuples (checked by the cxrpq package).
func Parse(src string) (Node, error) {
	p := &parser{src: []rune(src)}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("xregex: unexpected %q at offset %d in %q", p.src[p.pos], p.pos, src)
	}
	if err := ValidateWellFormed(n); err != nil {
		return nil, fmt.Errorf("xregex: %v in %q", err, src)
	}
	if !IsSequential(n) {
		return nil, fmt.Errorf("xregex: expression is not sequential: %q", src)
	}
	return n, nil
}

// MustParse is Parse but panics on error; for tests and package examples.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

const reserved = "(){}[]|+*?.$\\"

func isReserved(r rune) bool {
	for _, x := range reserved {
		if x == r {
			return true
		}
	}
	return false
}

func isNameRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

type parser struct {
	src []rune
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *parser) peek() (rune, bool) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseAlt() (Node, error) {
	first, err := p.parseCat()
	if err != nil {
		return nil, err
	}
	kids := []Node{first}
	for {
		r, ok := p.peek()
		if !ok || r != '|' {
			break
		}
		p.pos++
		next, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return &Alt{Kids: kids}, nil
}

func (p *parser) parseCat() (Node, error) {
	var kids []Node
	for {
		r, ok := p.peek()
		if !ok || r == '|' || r == ')' || r == '}' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		kids = append(kids, atom)
	}
	switch len(kids) {
	case 0:
		return &Eps{}, nil
	case 1:
		return kids[0], nil
	}
	return &Cat{Kids: kids}, nil
}

func (p *parser) parseRepeat() (Node, error) {
	n, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		r, ok := p.peek()
		if !ok {
			break
		}
		switch r {
		case '+':
			p.pos++
			n = &Plus{Kid: n}
		case '*':
			p.pos++
			n = &Star{Kid: n}
		case '?':
			p.pos++
			n = &Opt{Kid: n}
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *parser) parseAtom() (Node, error) {
	r, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("xregex: unexpected end of expression")
	}
	switch r {
	case '(':
		p.pos++
		if r2, ok := p.peek(); ok && r2 == ')' {
			p.pos++
			return &Eps{}, nil
		}
		n, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if r2, ok := p.peek(); !ok || r2 != ')' {
			return nil, fmt.Errorf("xregex: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return n, nil
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		return &Class{Neg: true}, nil
	case '$':
		return p.parseVar()
	case '\\':
		p.pos++
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xregex: dangling escape")
		}
		sym := p.src[p.pos]
		p.pos++
		return &Sym{R: sym}, nil
	case ')', '}', ']', '|', '+', '*', '?', '{':
		return nil, fmt.Errorf("xregex: unexpected %q at offset %d", r, p.pos)
	default:
		p.pos++
		return &Sym{R: r}, nil
	}
}

func (p *parser) parseClass() (Node, error) {
	p.pos++ // consume '['
	neg := false
	if p.pos < len(p.src) && p.src[p.pos] == '^' {
		neg = true
		p.pos++
	}
	var set []rune
	for {
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xregex: missing ']'")
		}
		r := p.src[p.pos]
		if r == ']' {
			p.pos++
			return NewClass(neg, set), nil
		}
		if r == '\\' {
			p.pos++
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("xregex: dangling escape in class")
			}
			r = p.src[p.pos]
		}
		set = append(set, r)
		p.pos++
	}
}

func (p *parser) parseVar() (Node, error) {
	p.pos++ // consume '$'
	start := p.pos
	for p.pos < len(p.src) && isNameRune(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("xregex: '$' must be followed by a variable name at offset %d", start)
	}
	name := string(p.src[start:p.pos])
	if p.pos < len(p.src) && p.src[p.pos] == '{' {
		p.pos++
		body, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if r, ok := p.peek(); !ok || r != '}' {
			return nil, fmt.Errorf("xregex: missing '}' for definition of $%s", name)
		}
		p.pos++
		return &Def{Var: name, Body: body}, nil
	}
	return &Ref{Var: name}, nil
}

// ValidateWellFormed checks the syntactic side conditions of Definition 3:
// a definition x{α} requires x ∉ var(α).
func ValidateWellFormed(n Node) (err error) {
	Walk(n, func(m Node) bool {
		if d, ok := m.(*Def); ok && (ContainsDef(d.Body, d.Var) || ContainsRef(d.Body, d.Var)) {
			err = fmt.Errorf("definition of $%s contains $%s (violates Definition 3)", d.Var, d.Var)
		}
		return err != nil
	})
	return err
}

package sparql

import (
	"fmt"
	"strings"

	"wdsparql/internal/rdf"
)

// This file implements a recursive-descent parser for the paper's
// concrete pattern syntax, extended with FILTER and a SELECT wrapper:
//
//	query    := pattern
//	          | SELECT [DISTINCT] ('*' | '?'name...) WHERE pattern
//	pattern  := unit { OP unit } { FILTER expr }
//	unit     := '(' pattern ')'                 (grouping / binary combination)
//	          | '(' term term term ')'          (triple pattern)
//	expr     := andExpr { OR andExpr }
//	andExpr  := notExpr { AND notExpr }
//	notExpr  := (NOT | '!') notExpr | primary
//	primary  := '(' expr ')'
//	          | BOUND '(' '?'name ')'
//	          | term ('=' | '!=') term
//	term     := '?'name                         (variable)
//	          | name                            (IRI)
//	          | '<' any '>'                     (angle-quoted IRI)
//
// Commas between the terms of a triple pattern are accepted and
// ignored, so the paper's "(?x, p, ?y)" parses as written. Operators
// at one nesting level must be identical; mixing AND/OPT/UNION without
// parentheses is rejected as ambiguous. FILTER clauses terminate their
// group: they apply to the whole sequence to their left, and only
// further FILTERs (or the closing parenthesis) may follow. Inside
// angle quotes every character except '>' is part of the IRI — in
// particular '#', which starts a comment everywhere else — so
// real-world fragment IRIs like <http://example.org/ns#name> parse as
// one term. An unterminated '<' is a syntax error, as is a stray '>'.

type tokenKind uint8

const (
	tokLParen tokenKind = iota
	tokRParen
	tokOp
	tokTerm
	tokCmp // "=" or "!="
	tokNot // "!"
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	in  string
	pos int
	// params makes ">i" lex as parameter i: set only for template keys
	// (template.go), which are the only input that spells one.
	params bool
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',':
			l.pos++
		case c == '#':
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
		case c == '(':
			l.pos++
			return token{kind: tokLParen, text: "(", pos: l.pos - 1}, nil
		case c == ')':
			l.pos++
			return token{kind: tokRParen, text: ")", pos: l.pos - 1}, nil
		case c == '<':
			// Angle-quoted IRI: one term through the closing '>',
			// shielding '#', ',', parentheses and every other delimiter.
			start := l.pos
			end := strings.IndexByte(l.in[start+1:], '>')
			if end < 0 {
				return token{}, fmt.Errorf("sparql: pos %d: unterminated '<' (no closing '>')", start)
			}
			l.pos = start + 1 + end + 1
			return token{kind: tokTerm, text: l.in[start:l.pos], pos: start}, nil
		case c == '>' && l.params:
			return l.lexParam()
		case c == '>':
			return token{}, fmt.Errorf("sparql: pos %d: unexpected '>' (angle-quoted IRIs open with '<')", l.pos)
		case c == '=':
			l.pos++
			return token{kind: tokCmp, text: "=", pos: l.pos - 1}, nil
		case c == '!':
			if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
				l.pos += 2
				return token{kind: tokCmp, text: "!=", pos: l.pos - 2}, nil
			}
			l.pos++
			return token{kind: tokNot, text: "!", pos: l.pos - 1}, nil
		default:
			start := l.pos
			for l.pos < len(l.in) && !strings.ContainsRune(" \t\n\r,()#<>=!", rune(l.in[l.pos])) {
				l.pos++
			}
			text := l.in[start:l.pos]
			switch text {
			case "AND", "OPT", "OPTIONAL", "UNION":
				return token{kind: tokOp, text: text, pos: start}, nil
			}
			return token{kind: tokTerm, text: text, pos: start}, nil
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil
}

type parser struct {
	lex    *lexer
	peeked *token
}

func (p *parser) peek() (token, error) {
	if p.peeked == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *parser) advance() (token, error) {
	t, err := p.peek()
	p.peeked = nil
	return t, err
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t, err := p.advance()
	if err != nil {
		return token{}, err
	}
	if t.kind != kind {
		return token{}, fmt.Errorf("sparql: pos %d: expected %s, got %q", t.pos, what, t.text)
	}
	return t, nil
}

// keyword reports whether the token is the given bare keyword. Angle
// quoting always wins: "<FILTER>" lexes as a term whose text keeps the
// brackets, so it never matches here.
func (t token) keyword(kw string) bool { return t.kind == tokTerm && t.text == kw }

func opOf(text string) Op {
	switch text {
	case "AND":
		return OpAnd
	case "OPT", "OPTIONAL":
		return OpOpt
	default:
		return OpUnion
	}
}

func parseTerm(text string, pos int) (rdf.Term, error) {
	if strings.HasPrefix(text, "<") {
		// The lexer only emits a '<'-leading term with its closing '>'.
		v := strings.TrimSuffix(strings.TrimPrefix(text, "<"), ">")
		if v == "" {
			return rdf.Term{}, fmt.Errorf("sparql: pos %d: empty IRI", pos)
		}
		return rdf.IRI(v), nil
	}
	if strings.HasPrefix(text, "?") {
		name := strings.TrimPrefix(text, "?")
		if name == "" {
			return rdf.Term{}, fmt.Errorf("sparql: pos %d: empty variable name", pos)
		}
		// rdf.Var strips one more leading "?" for convenience; a name
		// that still starts with "?" here (input "??…") would silently
		// collapse to a different — possibly empty — variable.
		if strings.HasPrefix(name, "?") {
			return rdf.Term{}, fmt.Errorf("sparql: pos %d: bad variable name %q", pos, text)
		}
		return rdf.Var(name), nil
	}
	if text == "" {
		return rdf.Term{}, fmt.Errorf("sparql: pos %d: empty IRI", pos)
	}
	return rdf.IRI(text), nil
}

// parseUnit parses a parenthesised triple pattern or binary expression.
func (p *parser) parseUnit() (Pattern, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokTerm {
		// Triple pattern: three terms then ')'.
		var terms [3]rdf.Term
		for i := 0; i < 3; i++ {
			tk, err := p.expect(tokTerm, "term")
			if err != nil {
				return nil, err
			}
			terms[i], err = parseTerm(tk.text, tk.pos)
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return Triple{T: rdf.WithTerms(terms)}, nil
	}
	// Binary expression: pattern op pattern { op pattern } ')'.
	inner, err := p.parseSeq(tokRParen)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return inner, nil
}

// parseSeq parses unit { OP unit } { FILTER expr } until the stop
// token kind is peeked. All operators in one sequence must be
// identical, and FILTER clauses terminate the sequence: each applies
// to everything parsed so far, and only further FILTERs may follow.
func (p *parser) parseSeq(stop tokenKind) (Pattern, error) {
	left, err := p.parseUnit()
	if err != nil {
		return nil, err
	}
	var seqOp *Op
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == stop || t.kind == tokEOF {
			return left, nil
		}
		if t.keyword("FILTER") {
			return p.parseFilters(left, stop)
		}
		opTok, err := p.expect(tokOp, "operator")
		if err != nil {
			return nil, err
		}
		op := opOf(opTok.text)
		if seqOp == nil {
			seqOp = &op
		} else if *seqOp != op {
			return nil, fmt.Errorf("sparql: pos %d: mixing %s with %s without parentheses is ambiguous", opTok.pos, seqOp, op)
		}
		right, err := p.parseUnit()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, Left: left, Right: right}
	}
}

// parseFilters parses the trailing FILTER clauses of a sequence,
// wrapping left once per clause (inner to outer in source order).
func (p *parser) parseFilters(left Pattern, stop tokenKind) (Pattern, error) {
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == stop || t.kind == tokEOF {
			return left, nil
		}
		if !t.keyword("FILTER") {
			return nil, fmt.Errorf("sparql: pos %d: expected FILTER or end of group, got %q (FILTER clauses must come last)", t.pos, t.text)
		}
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = Filter{Where: left, Cond: cond}
	}
}

// parseExpr parses a filter expression with the precedence
// OR < AND < NOT < comparison.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !t.keyword("OR") {
			return left, nil
		}
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: ExprOr, Left: left, Right: right}
	}
}

func (p *parser) parseAndExpr() (Expr, error) {
	left, err := p.parseNotExpr()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !(t.kind == tokOp && t.text == "AND") {
			return left, nil
		}
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNotExpr()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: ExprAnd, Left: left, Right: right}
	}
}

func (p *parser) parseNotExpr() (Expr, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokNot || t.keyword("NOT") {
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNotExpr()
		if err != nil {
			return nil, err
		}
		return ExprNot{X: x}, nil
	}
	return p.parseExprPrimary()
}

func (p *parser) parseExprPrimary() (Expr, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokLParen {
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if t.keyword("BOUND") {
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "'(' after BOUND"); err != nil {
			return nil, err
		}
		tk, err := p.expect(tokTerm, "variable")
		if err != nil {
			return nil, err
		}
		v, err := parseTerm(tk.text, tk.pos)
		if err != nil {
			return nil, err
		}
		if !v.IsVar() {
			return nil, fmt.Errorf("sparql: pos %d: BOUND takes a variable, got %q", tk.pos, tk.text)
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return Bound{Var: v}, nil
	}
	// Comparison: term (= | !=) term.
	lt, err := p.expect(tokTerm, "term or '(' in filter expression")
	if err != nil {
		return nil, err
	}
	lv, err := parseTerm(lt.text, lt.pos)
	if err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokCmp, "'=' or '!='")
	if err != nil {
		return nil, err
	}
	rt, err := p.expect(tokTerm, "term")
	if err != nil {
		return nil, err
	}
	rv, err := parseTerm(rt.text, rt.pos)
	if err != nil {
		return nil, err
	}
	return Cmp{Left: lv, Right: rv, Neq: opTok.text == "!="}, nil
}

// parseSelect parses the SELECT wrapper; the SELECT keyword itself is
// already consumed.
func (p *parser) parseSelect() (Pattern, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	distinct := false
	if t.keyword("DISTINCT") {
		distinct = true
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		t, err = p.peek()
		if err != nil {
			return nil, err
		}
	}
	var vars []rdf.Term
	if t.keyword("*") {
		if _, err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		seen := map[rdf.Term]bool{}
		for {
			t, err = p.peek()
			if err != nil {
				return nil, err
			}
			if t.keyword("WHERE") {
				break
			}
			tk, err := p.expect(tokTerm, "projection variable or WHERE")
			if err != nil {
				return nil, err
			}
			v, err := parseTerm(tk.text, tk.pos)
			if err != nil {
				return nil, err
			}
			if !v.IsVar() {
				return nil, fmt.Errorf("sparql: pos %d: SELECT projects variables, got %q", tk.pos, tk.text)
			}
			if seen[v] {
				return nil, fmt.Errorf("sparql: pos %d: duplicate projection variable %s", tk.pos, v)
			}
			seen[v] = true
			vars = append(vars, v)
		}
		if len(vars) == 0 {
			return nil, fmt.Errorf("sparql: pos %d: SELECT needs at least one variable or '*'", t.pos)
		}
	}
	if tk, err := p.advance(); err != nil {
		return nil, err
	} else if !tk.keyword("WHERE") {
		return nil, fmt.Errorf("sparql: pos %d: expected WHERE, got %q", tk.pos, tk.text)
	}
	where, err := p.parseSeq(tokEOF)
	if err != nil {
		return nil, err
	}
	return Select{Vars: vars, Distinct: distinct, Where: where}, nil
}

// Parse parses a graph pattern — or a SELECT query over one — from the
// concrete syntax described at the top of this file.
func Parse(input string) (Pattern, error) {
	return parse(&lexer{in: input})
}

func parse(lex *lexer) (Pattern, error) {
	p := &parser{lex: lex}
	first, err := p.peek()
	if err != nil {
		return nil, err
	}
	var pat Pattern
	if first.keyword("SELECT") {
		if _, err := p.advance(); err != nil {
			return nil, err
		}
		pat, err = p.parseSelect()
	} else {
		pat, err = p.parseSeq(tokEOF)
	}
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEOF, "end of input"); err != nil {
		return nil, err
	}
	return pat, nil
}

// MustParse is Parse that panics on error; intended for tests and
// examples with literal queries.
func MustParse(input string) Pattern {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

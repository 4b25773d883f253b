package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"wdsparql/internal/rdf"
)

// This file lifts a query text to its template: the text with every
// constant in a triple's subject or object position and on either side
// of a FILTER comparison replaced by a numbered parameter. Predicates,
// keywords, variables, whitespace and comments stay as written.
// Parameters are numbered from 0 by first occurrence and equal
// constants share a number, so a template stands for every text that
// renames its constants injectively — and the static analysis of the
// paper (well-designedness, the wdpf translation, the widths) compares
// constants only for equality, so it is the same for all of them.
//
// A parameter is spelled ">i" in the key and is the IRI rdf.Param(i)
// in the parsed template. No query text contains '>' outside an
// angle-quoted IRI, where it closes the quote, so no text lexes to a
// parameter and no text is the key of another shape.
//
// A constant that also occurs as a predicate stays literal everywhere:
// lifting only its subject/object occurrences would rename one constant
// two ways, and a homomorphism may map a variable onto it in both
// positions at once.

// TemplateKey lifts src to its template key and returns the lifted
// constants (IRI values, by parameter number). One pass over the
// lexer's tokens: the text is not parsed. ok is false when src does not
// lex or a triple pattern is malformed; the caller then parses src to
// report the error. A text with nothing to lift is its own key (consts
// nil).
func TemplateKey(src string) (key string, consts []string, ok bool) {
	var buf [64]token
	toks := buf[:0]
	l := lexer{in: src}
	for {
		t, err := l.next()
		if err != nil {
			return src, nil, false
		}
		if t.kind == tokEOF {
			break
		}
		toks = append(toks, t)
	}
	// Candidate lifts as token indices, and the predicate values.
	var liftBuf [32]int32
	lifts := liftBuf[:0]
	var predBuf [16]string
	preds := predBuf[:0]
	inFilter, depth, afterPrimary := false, 0, false
	for i := 0; i < len(toks); {
		t := toks[i]
		if inFilter {
			if afterPrimary {
				if (t.kind == tokOp && t.text == "AND") || t.keyword("OR") {
					afterPrimary = false
					i++
					continue
				}
				inFilter = false // the expression ended: t belongs to the group
			} else {
				switch t.kind {
				case tokLParen:
					depth++
				case tokRParen:
					if depth == 0 {
						return src, nil, false
					}
					if depth--; depth == 0 {
						afterPrimary = true
					}
				case tokTerm:
					switch {
					case i+1 < len(toks) && toks[i+1].kind == tokCmp:
						if lifts, ok = lift(lifts, toks, i); !ok {
							return src, nil, false
						}
					case i > 0 && toks[i-1].kind == tokCmp:
						if lifts, ok = lift(lifts, toks, i); !ok {
							return src, nil, false
						}
						afterPrimary = depth == 0
					}
				}
				i++
				continue
			}
		}
		switch {
		case t.kind == tokLParen && i+1 < len(toks) && toks[i+1].kind == tokTerm:
			// A triple pattern: '(' s p o ')'.
			if i+4 >= len(toks) || toks[i+2].kind != tokTerm || toks[i+3].kind != tokTerm || toks[i+4].kind != tokRParen {
				return src, nil, false
			}
			if lifts, ok = lift(lifts, toks, i+1); ok {
				lifts, ok = lift(lifts, toks, i+3)
			}
			if !ok {
				return src, nil, false
			}
			if p := toks[i+2].text; !strings.HasPrefix(p, "?") {
				preds = append(preds, iriValue(p))
			}
			i += 5
			continue
		case t.keyword("FILTER"):
			inFilter, depth, afterPrimary = true, 0, false
		}
		i++
	}
	if len(lifts) == 0 {
		return src, nil, true
	}
	var b strings.Builder
	b.Grow(len(src) + 2*len(lifts))
	last := 0
	for _, li := range lifts {
		t := toks[li]
		v := iriValue(t.text)
		if slices.Contains(preds, v) {
			continue // also a predicate: stays literal
		}
		n := slices.Index(consts, v)
		if n < 0 {
			n = len(consts)
			consts = append(consts, v)
		}
		b.WriteString(src[last:t.pos])
		b.WriteByte('>')
		b.WriteString(strconv.Itoa(n))
		last = t.pos + len(t.text)
		if last < len(src) && src[last] >= '0' && src[last] <= '9' {
			b.WriteByte(' ') // "<a>1" lexes as two terms; ">01" would be one
		}
	}
	if consts == nil {
		return src, nil, true
	}
	b.WriteString(src[last:])
	return b.String(), consts, true
}

// lift appends token i to lifts when it is a constant. false: the
// token is the empty IRI "<>", which only the parser should report.
func lift(lifts []int32, toks []token, i int) ([]int32, bool) {
	t := toks[i].text
	if strings.HasPrefix(t, "?") {
		return lifts, true // a variable
	}
	if iriValue(t) == "" {
		return lifts, false
	}
	return append(lifts, int32(i)), true
}

// iriValue is the IRI a constant token denotes: its text, without the
// angle quotes when it has them.
func iriValue(text string) string {
	if strings.HasPrefix(text, "<") {
		return text[1 : len(text)-1]
	}
	return text
}

// ParseTemplate parses a template key: the query syntax of Parse, in
// which ">i" is parameter i (the IRI rdf.Param(i)).
func ParseTemplate(key string) (Pattern, error) {
	return parse(&lexer{in: key, params: true})
}

// FillTemplate substitutes consts[i], angle-quoted, for every parameter
// ">i" of a template key: the inverse of TemplateKey, up to the
// spelling of the constants. Every constant must be non-empty and free
// of '>'.
func FillTemplate(key string, consts []string) (string, error) {
	var b strings.Builder
	l := lexer{in: key, params: true}
	last := 0
	for {
		t, err := l.next()
		if err != nil {
			return "", err
		}
		if t.kind == tokEOF {
			break
		}
		i, ok := rdf.IRI(t.text).ParamIndex()
		if t.kind != tokTerm || !ok {
			continue
		}
		if i >= len(consts) {
			return "", fmt.Errorf("sparql: pos %d: parameter %s has no constant", t.pos, t.text)
		}
		b.WriteString(key[last:t.pos])
		b.WriteString("<" + consts[i] + ">")
		last = t.pos + len(t.text)
	}
	b.WriteString(key[last:])
	return b.String(), nil
}

// lexParam reads the parameter token ">i" at l.pos.
func (l *lexer) lexParam() (token, error) {
	start := l.pos
	end := start + 1
	for end < len(l.in) && l.in[end] >= '0' && l.in[end] <= '9' {
		end++
	}
	if end == start+1 {
		return token{}, fmt.Errorf("sparql: pos %d: unexpected '>' (angle-quoted IRIs open with '<')", start)
	}
	l.pos = end
	return token{kind: tokTerm, text: l.in[start:end], pos: start}, nil
}

// Instantiate substitutes consts[i] for every parameter i of the
// pattern: a template's pattern becomes the pattern of the text it was
// lifted from.
func Instantiate(p Pattern, consts []string) Pattern {
	switch q := p.(type) {
	case Triple:
		return Triple{T: InstantiateTriple(q.T, consts)}
	case Binary:
		return Binary{Op: q.Op, Left: Instantiate(q.Left, consts), Right: Instantiate(q.Right, consts)}
	case Filter:
		return Filter{Where: Instantiate(q.Where, consts), Cond: InstantiateExpr(q.Cond, consts)}
	case Select:
		return Select{Vars: q.Vars, Distinct: q.Distinct, Where: Instantiate(q.Where, consts)}
	}
	panic(fmt.Sprintf("sparql: unknown pattern %T", p))
}

// instantiateTerm is Instantiate for one term.
func instantiateTerm(t rdf.Term, consts []string) rdf.Term {
	if i, ok := t.ParamIndex(); ok && i < len(consts) {
		return rdf.IRI(consts[i])
	}
	return t
}

// InstantiateTriple is Instantiate for one triple pattern.
func InstantiateTriple(t rdf.Triple, consts []string) rdf.Triple {
	return rdf.Triple{S: instantiateTerm(t.S, consts), P: instantiateTerm(t.P, consts), O: instantiateTerm(t.O, consts)}
}

// InstantiateExpr is Instantiate for a filter expression.
func InstantiateExpr(e Expr, consts []string) Expr {
	switch q := e.(type) {
	case Cmp:
		return Cmp{Left: instantiateTerm(q.Left, consts), Right: instantiateTerm(q.Right, consts), Neq: q.Neq}
	case Bound:
		return q
	case ExprBinary:
		return ExprBinary{Op: q.Op, Left: InstantiateExpr(q.Left, consts), Right: InstantiateExpr(q.Right, consts)}
	case ExprNot:
		return ExprNot{X: InstantiateExpr(q.X, consts)}
	}
	panic(fmt.Sprintf("sparql: unknown expression %T", e))
}

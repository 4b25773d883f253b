// Package rdf implements the data model of the paper's Section 2:
// IRIs, SPARQL variables, RDF triples and triple patterns, ground RDF
// graphs with positional indexes, and partial mappings from variables
// to IRIs together with the compatibility relation.
//
// The package is deliberately self-contained: every other package in
// this module is built on top of these types.
package rdf

import (
	"slices"
	"strconv"
	"strings"
)

// TermKind discriminates the two kinds of terms that may occur in a
// SPARQL triple pattern: IRIs (constants) and variables.
type TermKind uint8

const (
	// KindIRI marks a constant term drawn from the countable set I of IRIs.
	KindIRI TermKind = iota
	// KindVar marks a variable term drawn from the countable set V,
	// disjoint from I.
	KindVar
)

// Term is either an IRI or a variable. The zero value is the empty IRI.
//
// Terms are small comparable values; they are used directly as map keys
// throughout the module.
type Term struct {
	Kind  TermKind
	Value string
}

// IRI returns a constant term with the given identifier.
func IRI(v string) Term { return Term{Kind: KindIRI, Value: v} }

// Var returns a variable term. The canonical representation does not
// include the leading "?" of the paper's concrete syntax; V("x") is the
// variable the paper writes as ?x. A leading "?" is stripped if present
// so that Var("?x") and Var("x") denote the same variable.
func Var(v string) Term {
	v = strings.TrimPrefix(v, "?")
	return Term{Kind: KindVar, Value: v}
}

// Param returns the placeholder of parameter i (0-based) of a query
// template: the IRI ">i". No parsed query can produce it — an IRI never
// contains '>', bare or angle-quoted — so a template's parameters can
// never be confused with the constants it keeps literal.
func Param(i int) Term { return Term{Kind: KindIRI, Value: ">" + strconv.Itoa(i)} }

// ParamIndex returns i when t is Param(i).
func (t Term) ParamIndex() (int, bool) {
	if t.Kind != KindIRI || len(t.Value) < 2 || t.Value[0] != '>' || t.Value[1] < '0' || t.Value[1] > '9' {
		return 0, false
	}
	i, err := strconv.Atoi(t.Value[1:])
	return i, err == nil
}

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsIRI reports whether t is an IRI constant.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// String renders the term in the paper's concrete syntax: variables are
// prefixed with "?", IRIs are printed bare.
func (t Term) String() string {
	if t.Kind == KindVar {
		return "?" + t.Value
	}
	return t.Value
}

// Less imposes a total order on terms (IRIs before variables, then by
// name). It is used to produce deterministic output.
func (t Term) Less(u Term) bool {
	if t.Kind != u.Kind {
		return t.Kind < u.Kind
	}
	return t.Value < u.Value
}

// Triple is an RDF triple or a SPARQL triple pattern, depending on
// whether any position holds a variable. The paper's tuple
// (s, p, o) ∈ (I ∪ V)³.
type Triple struct {
	S, P, O Term
}

// T is a convenience constructor for a triple pattern.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// Ground reports whether the triple contains no variables, i.e. whether
// it is an RDF triple in the paper's sense.
func (t Triple) Ground() bool {
	return !t.S.IsVar() && !t.P.IsVar() && !t.O.IsVar()
}

// Vars returns the set of variables occurring in the triple, in
// positional order without duplicates (the paper's vars(t)).
func (t Triple) Vars() []Term {
	out := make([]Term, 0, 3)
	seen := map[Term]bool{}
	for _, x := range [3]Term{t.S, t.P, t.O} {
		if x.IsVar() && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// Terms returns the three positions of the triple as a fixed-size array.
func (t Triple) Terms() [3]Term { return [3]Term{t.S, t.P, t.O} }

// WithTerms builds a triple from a positional array.
func WithTerms(a [3]Term) Triple { return Triple{S: a[0], P: a[1], O: a[2]} }

// String renders the triple in the paper's notation "(s, p, o)".
func (t Triple) String() string {
	return "(" + t.S.String() + ", " + t.P.String() + ", " + t.O.String() + ")"
}

// Less imposes a deterministic total order on triples.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S.Less(u.S)
	}
	if t.P != u.P {
		return t.P.Less(u.P)
	}
	return t.O.Less(u.O)
}

// SortTriples sorts a slice of triples in place under Triple.Less.
func SortTriples(ts []Triple) {
	slices.SortFunc(ts, func(a, b Triple) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
}

// VarsOf returns the sorted set of variables occurring in a set of
// triples (the paper's vars(S) for a t-graph S).
func VarsOf(ts []Triple) []Term {
	var out []Term
	for _, t := range ts {
		for _, v := range [3]Term{t.S, t.P, t.O} {
			if v.IsVar() {
				out = append(out, v)
			}
		}
	}
	// Every term is a variable: Less orders them by name.
	slices.SortFunc(out, func(a, b Term) int { return strings.Compare(a.Value, b.Value) })
	return slices.Compact(out)
}

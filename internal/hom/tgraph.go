// Package hom implements triple-pattern graphs (t-graphs), generalised
// t-graphs (S, X), homomorphisms between them and into RDF graphs, and
// core computation — the machinery of Sections 2.1 and 3 of the paper.
//
// Homomorphism search is one backtracking kernel (rows.go): patterns
// compiled against the graph's dictionary, the fewest-matches pattern
// expanded first, its candidates walked in storage order, matches
// written into a flat row. The string API (solver.go) and the cores
// built on it are thin entries over that kernel. Homomorphisms between
// t-graphs are reduced to homomorphisms into an encoded RDF graph in
// which the target's variables are frozen into fresh IRIs, mirroring
// the paper's remark that generalised t-graphs correspond to
// conjunctive queries with constants.
package hom

import (
	"fmt"
	"sort"
	"strings"

	"wdsparql/internal/rdf"
)

// TGraph is a t-graph: a finite set of triple patterns (Section 2.1).
// The representation is a sorted, deduplicated slice.
type TGraph []rdf.Triple

// NewTGraph builds a t-graph from the given triples, deduplicating and
// sorting them.
func NewTGraph(ts ...rdf.Triple) TGraph {
	seen := make(map[rdf.Triple]bool, len(ts))
	out := make(TGraph, 0, len(ts))
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	rdf.SortTriples(out)
	return out
}

// Union returns the t-graph S ∪ T.
func (s TGraph) Union(t TGraph) TGraph {
	return NewTGraph(append(append([]rdf.Triple{}, s...), t...)...)
}

// Vars returns vars(S), sorted.
func (s TGraph) Vars() []rdf.Term { return rdf.VarsOf(s) }

// Contains reports whether the triple pattern t ∈ S.
func (s TGraph) Contains(t rdf.Triple) bool {
	i := sort.Search(len(s), func(i int) bool { return !s[i].Less(t) })
	return i < len(s) && s[i] == t
}

// SubsetOf reports S ⊆ T.
func (s TGraph) SubsetOf(t TGraph) bool {
	for _, tr := range s {
		if !t.Contains(tr) {
			return false
		}
	}
	return true
}

// Equal reports whether two t-graphs contain the same triples.
func (s TGraph) Equal(t TGraph) bool {
	return len(s) == len(t) && s.SubsetOf(t)
}

// Ground reports whether the t-graph has no variables, i.e. is an RDF
// graph.
func (s TGraph) Ground() bool {
	for _, t := range s {
		if !t.Ground() {
			return false
		}
	}
	return true
}

// String renders the t-graph as a set of triples.
func (s TGraph) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// GTGraph is a generalised t-graph (S, X): a t-graph together with a
// set of distinguished variables X ⊆ vars(S) that homomorphisms must
// fix pointwise (Section 3 of the paper).
type GTGraph struct {
	S TGraph
	X []rdf.Term // sorted distinguished variables
}

// NewGTGraph builds a generalised t-graph. Distinguished variables not
// occurring in S are dropped, matching the requirement X ⊆ vars(S).
func NewGTGraph(s TGraph, x []rdf.Term) GTGraph {
	inS := map[rdf.Term]bool{}
	for _, v := range s.Vars() {
		inS[v] = true
	}
	seen := map[rdf.Term]bool{}
	kept := make([]rdf.Term, 0, len(x))
	for _, v := range x {
		if v.IsVar() && inS[v] && !seen[v] {
			seen[v] = true
			kept = append(kept, v)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Less(kept[j]) })
	return GTGraph{S: s, X: kept}
}

// FreeVars returns vars(S) \ X, the variables a homomorphism may move.
func (g GTGraph) FreeVars() []rdf.Term {
	inX := map[rdf.Term]bool{}
	for _, v := range g.X {
		inX[v] = true
	}
	var out []rdf.Term
	for _, v := range g.S.Vars() {
		if !inX[v] {
			out = append(out, v)
		}
	}
	return out
}

// IsDistinguished reports whether v ∈ X.
func (g GTGraph) IsDistinguished(v rdf.Term) bool {
	for _, x := range g.X {
		if x == v {
			return true
		}
	}
	return false
}

// String renders the generalised t-graph as (S, {X}).
func (g GTGraph) String() string {
	xs := make([]string, len(g.X))
	for i, v := range g.X {
		xs[i] = v.String()
	}
	return fmt.Sprintf("(%s, {%s})", g.S, strings.Join(xs, ", "))
}

// Encoding prefixes used when freezing t-graphs into RDF graphs for
// t-graph-to-t-graph homomorphism tests. The prefixes keep frozen
// variables disjoint from genuine IRIs.
const (
	frozenIRIPrefix = "\x01i:"
	frozenVarPrefix = "\x01v:"
)

// FreezeTerm encodes a term of a target t-graph as an IRI: IRIs and
// variables are mapped into disjoint namespaces.
func FreezeTerm(t rdf.Term) rdf.Term {
	if t.IsVar() {
		return rdf.IRI(frozenVarPrefix + t.Value)
	}
	return rdf.IRI(frozenIRIPrefix + t.Value)
}

// ThawTerm inverts FreezeTerm.
func ThawTerm(t rdf.Term) rdf.Term {
	if strings.HasPrefix(t.Value, frozenVarPrefix) {
		return rdf.Var(strings.TrimPrefix(t.Value, frozenVarPrefix))
	}
	if strings.HasPrefix(t.Value, frozenIRIPrefix) {
		return rdf.IRI(strings.TrimPrefix(t.Value, frozenIRIPrefix))
	}
	return t
}

// Freeze encodes a t-graph as a ground RDF graph: every variable
// becomes a frozen-variable IRI and every IRI a frozen-IRI IRI. This
// is the canonical reduction of t-graph homomorphism to RDF-graph
// homomorphism, and also the paper's Section 4.2 trick of "freezing
// the variables of B, which now become IRIs". The graph is bulk-loaded
// sealed: a target is searched, never grown.
func Freeze(s TGraph) *rdf.Graph {
	ts := make([]rdf.Triple, len(s))
	for i, t := range s {
		ts[i] = rdf.T(FreezeTerm(t.S), FreezeTerm(t.P), FreezeTerm(t.O))
	}
	return rdf.GraphFromTriples(ts)
}

// freezeSource prepares the triples of a source generalised t-graph
// for matching against a frozen target: IRIs and distinguished
// variables become frozen constants (they must map to themselves);
// free variables remain variables.
func freezeSource(g GTGraph) []rdf.Triple {
	isX := map[rdf.Term]bool{}
	for _, v := range g.X {
		isX[v] = true
	}
	conv := func(t rdf.Term) rdf.Term {
		if t.IsIRI() || isX[t] {
			return FreezeTerm(t)
		}
		return t
	}
	out := make([]rdf.Triple, len(g.S))
	for i, t := range g.S {
		out[i] = rdf.T(conv(t.S), conv(t.P), conv(t.O))
	}
	return out
}

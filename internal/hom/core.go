package hom

import (
	"wdsparql/internal/rdf"
)

// This file computes cores of generalised t-graphs (Section 3 of the
// paper, Proposition 1). A generalised t-graph (S, X) is a core when
// there is no homomorphism from (S, X) to a proper subgraph (S', X),
// S' ⊊ S. Every (S, X) has a core, unique up to renaming of variables,
// obtained by iterated retraction.
//
// The algorithm rests on a standard fact about finite structures: if
// (S, X) maps homomorphically onto a proper subgraph then some
// idempotent power of that endomorphism eliminates at least one
// non-distinguished variable entirely. It therefore suffices to search,
// for each free variable v, for a homomorphism from (S, X) into the
// subgraph of S consisting of the triples not mentioning v; applying
// the found endomorphism shrinks S, and iterating to a fixpoint yields
// the core.

// Core returns the core of (S, X) as a sub-t-graph of S (no variable
// renaming is performed, so Core(g).S ⊆ g.S).
func Core(g GTGraph) GTGraph {
	s := g.S
	for {
		image, ok := findEliminableVar(GTGraph{S: s, X: g.X})
		if !ok {
			return NewGTGraph(s, g.X)
		}
		s = image
	}
}

// IsCore reports whether (S, X) is a core.
func IsCore(g GTGraph) bool {
	_, ok := findEliminableVar(g)
	return !ok
}

// findEliminableVar searches for a free variable v of S and an
// endomorphism of (S, X) whose image avoids every triple mentioning v.
// It returns the image t-graph h(S) when found.
func findEliminableVar(g GTGraph) (TGraph, bool) {
	for _, v := range g.FreeVars() {
		var rest []rdf.Triple
		for _, t := range g.S {
			if !mentions(t, v) {
				rest = append(rest, t)
			}
		}
		if len(rest) == len(g.S) {
			continue // v does not occur; impossible for v ∈ vars(S)
		}
		target := NewTGraph(rest...)
		h, ok := FindHom(g, GTGraph{S: target, X: g.X})
		if !ok {
			continue
		}
		return applyVarMap(g, h), true
	}
	return nil, false
}

func mentions(t rdf.Triple, v rdf.Term) bool {
	return t.S == v || t.P == v || t.O == v
}

// applyVarMap applies an endomorphism (as a variable map) to S,
// returning h(S).
func applyVarMap(g GTGraph, h map[rdf.Term]rdf.Term) TGraph {
	conv := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			if img, ok := h[t]; ok {
				return img
			}
		}
		return t
	}
	out := make([]rdf.Triple, len(g.S))
	for i, t := range g.S {
		out[i] = rdf.T(conv(t.S), conv(t.P), conv(t.O))
	}
	return NewTGraph(out...)
}

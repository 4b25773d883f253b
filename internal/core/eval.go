package core

import (
	"fmt"

	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// This file holds the entry points of wdPF evaluation. Deciding
// µ ∈ ⟦F⟧G is one control flow (Lemma 1, following Letelier et al. and
// Pichler–Skritek): find, per tree, the unique subtree matched exactly
// by µ and verify that no child admits a compatible homomorphic
// extension. It lives once, in Evaluator.Decide (batch.go); an
// Algorithm selects how each extension test is decided. Enumerate
// materialises ⟦T⟧G / ⟦F⟧G via Lemma 1 by iterating over all subtrees;
// used by examples and as a second reference implementation in tests.

// FindMatchedSubtree returns the unique subtree Tµ of t such that µ is
// a homomorphism from pat(Tµ) to G with vars(Tµ) = dom(µ), when it
// exists. Uniqueness follows from NR normal form.
func FindMatchedSubtree(t *ptree.Tree, g *rdf.Graph, mu rdf.Mapping) (ptree.Subtree, bool) {
	s, ok := ptree.WitnessSubtree(t, mu.Dom())
	if !ok {
		return ptree.Subtree{}, false
	}
	for _, tr := range s.Pattern() {
		img := mu.Apply(tr)
		if !img.Ground() || !g.Contains(img) {
			return ptree.Subtree{}, false
		}
	}
	return s, true
}

// Enumerate computes ⟦T⟧G by Lemma 1, iterating over every subtree T'
// of T: a mapping µ with dom(µ) = vars(T') is a solution iff µ is a
// homomorphism from pat(T') to G and no child of T' admits a
// compatible extension. Exponential in the tree size; intended for
// small trees (examples, tests, ground truth).
func Enumerate(t *ptree.Tree, g *rdf.Graph) *rdf.MappingSet {
	out := rdf.NewMappingSet()
	for _, s := range ptree.EnumerateSubtrees(t) {
		pat := s.Pattern()
		children := s.Children()
		for _, mu := range hom.FindAll(pat, g, 0) {
			maximal := true
			for _, n := range children {
				if hom.ExistsExtending(n.Pattern, mu, g) {
					maximal = false
					break
				}
			}
			if maximal {
				out.Add(mu)
			}
		}
	}
	return out
}

// EnumerateForest computes ⟦F⟧G = ⟦T1⟧G ∪ ... ∪ ⟦Tm⟧G.
func EnumerateForest(f ptree.Forest, g *rdf.Graph) *rdf.MappingSet {
	out := rdf.NewMappingSet()
	for _, t := range f {
		out.AddAll(Enumerate(t, g))
	}
	return out
}

// Algorithm selects how the extension tests of a wdEVAL decision are
// decided.
type Algorithm uint8

const (
	// AlgNaive is the Lemma 1 natural algorithm: genuine homomorphism
	// tests — exact, exponential in the query in the worst case (wdEVAL
	// is coNP-complete).
	AlgNaive Algorithm = iota
	// AlgPebble is the Theorem 1 algorithm: existential (k+1)-pebble
	// games, polynomial for fixed k. Always sound (a rejection is
	// definitive) and complete whenever dw(F) ≤ k.
	AlgPebble
	// AlgAuto is the width-aware algorithm: homomorphism tests under a
	// probe budget, with the (dw(F)+1)-pebble game as the fallback. Exact
	// for every forest, like AlgNaive.
	AlgAuto
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgNaive:
		return "naive"
	case AlgPebble:
		return "pebble"
	case AlgAuto:
		return "auto"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// Eval decides µ ∈ ⟦F⟧G with the selected algorithm; k is the
// domination-width bound used by AlgPebble (k ≥ 1, correct when
// dw(F) ≤ k) and ignored otherwise. It compiles the forest for one
// decision and, like Evaluator.Eval, panics on an instance AlgPebble
// cannot represent. FILTERs are ignored, as Evaluator documents.
func Eval(a Algorithm, k int, f ptree.Forest, g *rdf.Graph, mu rdf.Mapping) bool {
	return NewEvaluator(a, k, CompileForestOpts(f, g, CompileOpts{NoFilterPushdown: true})).Eval(mu)
}

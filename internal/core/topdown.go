package core

import (
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// This file implements the practical top-down enumeration of ⟦T⟧G.
// Where Enumerate iterates over all (exponentially many) subtrees,
// the top-down procedure walks the tree once per partial solution:
// starting from the homomorphisms of the root pattern, each child that
// admits a compatible extension must be extended (maximality), and —
// by the connectivity condition (3) of wdPTs — extensions through
// different children bind disjoint fresh variables, so per-child
// solution sets combine by cross product.
//
// The procedure still takes exponential time in the worst case (wdEVAL
// is coNP-complete and an answer can be exponentially large), but its
// cost is driven by the number of partial solutions rather than the
// number of subtrees. It is cross-validated against Enumerate and the
// compositional semantics in the test suite.

// EnumerateTopDown computes ⟦T⟧G by the top-down procedure, on string
// mappings. It is kept as the cross-validation reference for the
// compiled row pipeline of topdownid.go; production callers go through
// EnumerateTopDownForest / Count / the *ID entry points, which run on
// rows.
func EnumerateTopDown(t *ptree.Tree, g *rdf.Graph) *rdf.MappingSet {
	out := rdf.NewMappingSet()
	for _, mu := range hom.FindAll(t.Root.Pattern, g, 0) {
		for _, sol := range extendThrough(t.Root.Children, mu, g) {
			out.Add(sol)
		}
	}
	return out
}

// EnumerateTopDownForest computes ⟦F⟧G = ⋃ ⟦Ti⟧G. It runs on the
// compiled row pipeline and decodes at the boundary; the signature is
// unchanged for existing callers.
func EnumerateTopDownForest(f ptree.Forest, g *rdf.Graph) *rdf.MappingSet {
	return EnumerateTopDownForestID(f, g).Decode(g.Dict())
}

// Count returns |⟦F⟧G|, counted on rows without decoding any term.
func Count(f ptree.Forest, g *rdf.Graph) int {
	return EnumerateTopDownForestID(f, g).Len()
}

// extendThrough returns the maximal extensions of µ through the given
// children. Children without a compatible extension are skipped (they
// never block maximality of µ itself); children with extensions MUST
// be extended, each independently, and the per-child solution sets are
// combined by cross product (their fresh variables are disjoint).
func extendThrough(children []*ptree.Node, mu rdf.Mapping, g *rdf.Graph) []rdf.Mapping {
	acc := []rdf.Mapping{mu}
	for _, c := range children {
		exts := childSolutions(c, mu, g)
		if len(exts) == 0 {
			continue
		}
		var next []rdf.Mapping
		for _, base := range acc {
			for _, e := range exts {
				// Disjoint fresh variables: union always succeeds.
				u, ok := base.Union(e)
				if !ok {
					// Cannot happen for wdPTs in NR normal form; keep
					// the defensive skip rather than panicking on
					// adversarial inputs.
					continue
				}
				next = append(next, u)
			}
		}
		acc = next
	}
	return acc
}

// childSolutions returns the maximal solutions contributed by child c
// under µ: for each compatible extension ν of pat(c), the recursive
// extensions of µ∪ν through c's children.
func childSolutions(c *ptree.Node, mu rdf.Mapping, g *rdf.Graph) []rdf.Mapping {
	var out []rdf.Mapping
	for _, nu := range hom.FindAll(mu.ApplyAll(c.Pattern), g, 0) {
		// Re-attach bindings of pat(c)'s variables that µ already
		// fixes, then recurse below c.
		full := nu.Clone()
		for _, v := range c.Vars() {
			if img, ok := mu.Lookup(v); ok {
				full[v.Value] = img.Value
			}
		}
		merged, ok := mu.Union(full)
		if !ok {
			continue
		}
		out = append(out, extendThrough(c.Children, merged, g)...)
	}
	return out
}

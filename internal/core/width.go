package core

import (
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// This file implements the width measures over pattern trees and
// forests: branch treewidth (Definition 3), domination width
// (Definitions 1 and 2) and the local-tractability width of Letelier
// et al. that bounded domination width strictly generalises.

// BranchTreewidth returns bw(T) (Definition 3): the maximum over all
// non-root nodes n of ctw(S^br_n, X^br_n), where S^br_n is pat(n)
// together with the patterns of all nodes on the path from the root to
// n's parent, and X^br_n are the variables of that path. Trees with a
// single node have bw = 1 by convention (there is nothing to bound).
func BranchTreewidth(t *ptree.Tree) int {
	best := 1
	for _, n := range t.Nodes() {
		if n.Parent == nil {
			continue
		}
		s, x := branchGraph(n)
		if w := CTW(hom.NewGTGraph(s, x)); w > best {
			best = w
		}
	}
	return best
}

// branchGraph returns (S^br_n, X^br_n) for a non-root node n.
func branchGraph(n *ptree.Node) (hom.TGraph, []rdf.Term) {
	var branch []rdf.Triple
	for a := n.Parent; a != nil; a = a.Parent {
		branch = append(branch, a.Pattern...)
	}
	x := rdf.VarsOf(branch)
	s := hom.NewTGraph(append(append([]rdf.Triple{}, branch...), n.Pattern...)...)
	return s, x
}

// LocalWidth returns the local-tractability width of a forest: the
// maximum over all trees and non-root nodes n (with parent n') of
// ctw(pat(n), vars(n) ∩ vars(n')). A class is locally tractable in
// the sense of Letelier et al. iff this quantity is bounded.
func LocalWidth(f ptree.Forest) int {
	best := 1
	for _, t := range f {
		for _, n := range t.Nodes() {
			if n.Parent == nil {
				continue
			}
			// NewGTGraph keeps the parent's variables that occur in n.
			if w := CTW(hom.NewGTGraph(n.Pattern, n.Parent.Vars())); w > best {
				best = w
			}
		}
	}
	return best
}

// DominationWidth returns dw(F) (Definition 2): the minimum k ≥ 1 such
// that for every subtree T of F the set GtG(T) is k-dominated
// (Definition 1). Computed as
//
//	dw(F) = max over subtrees T, max over g ∈ GtG(T) of
//	        min { ctw(g') | g' ∈ GtG(T), g' → g },
//
// which is exactly the least k making every GtG(T) k-dominated: a
// generalised t-graph g needs a dominator of ctw ≤ k, and g dominates
// itself. The computation enumerates all subtrees and all valid
// children assignments and is exponential in |F| — domination width is
// a static property of the query, not of the data.
func DominationWidth(f ptree.Forest) int {
	best := 1
	for _, fs := range ptree.EnumerateForestSubtrees(f) {
		if w := subtreeDominationWidth(fs); w > best {
			best = w
		}
	}
	return best
}

// subtreeDominationWidth returns min k such that GtG(T) is k-dominated.
func subtreeDominationWidth(fs ptree.ForestSubtree) int {
	gtg := ptree.GtG(fs)
	if len(gtg) == 0 {
		return 1
	}
	ctws := make([]int, len(gtg))
	for i, g := range gtg {
		ctws[i] = CTW(g)
	}
	need := 1
	for i, g := range gtg {
		ni := ctws[i]
		for j, h := range gtg {
			if j == i || ctws[j] >= ni {
				continue
			}
			if hom.Hom(h, g) {
				ni = ctws[j]
			}
		}
		if ni > need {
			need = ni
		}
	}
	return need
}

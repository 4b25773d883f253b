package ptree

import (
	"slices"
	"strings"

	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// This file is the wdpf side of query templates (sparql/template.go):
// a template's forest is the forest of every text lifted to it, with
// its parameters in place of the text's constants, up to order. The
// translation compares triples and filters for equality only, and a
// template's parameters are an injective renaming of the text's
// constants, so both build the same trees; but wdpf sorts a node's
// triples (Triple.Less) and its children (their rendering, sortKey),
// and both sorts read constants. InstantiateForest therefore sorts
// again after substituting.

// InstantiateForest substitutes consts[i] for parameter i throughout a
// template's forest and restores wdpf's order on the result: each
// node's triples sorted, each node's children stably sorted by their
// rendering. The result is the forest wdpf builds for the text the
// template was lifted from. Stability is enough for ties: two siblings
// that render alike under one renaming render alike under every
// injective one, so both sorts keep them in construction order.
func InstantiateForest(f Forest, consts []string) Forest {
	out := make(Forest, len(f))
	for i, t := range f {
		out[i] = newTree(instantiateNode(t.Root, nil, consts))
	}
	return out
}

func instantiateNode(n, parent *Node, consts []string) *Node {
	pat := make(hom.TGraph, len(n.Pattern))
	for i, t := range n.Pattern {
		pat[i] = sparql.InstantiateTriple(t, consts)
	}
	rdf.SortTriples(pat)
	m := &Node{Pattern: pat, Parent: parent}
	if len(n.Filters) > 0 {
		m.Filters = make([]sparql.Expr, len(n.Filters))
		for i, e := range n.Filters {
			m.Filters[i] = sparql.InstantiateExpr(e, consts)
		}
	}
	if len(n.Children) > 0 {
		m.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			m.Children[i] = instantiateNode(c, m, consts)
		}
		if len(m.Children) > 1 {
			sortByKey(m.Children)
		}
	}
	return m
}

// sortByKey is SortChildren's stable sort of one node's children,
// rendering each child once.
func sortByKey(children []*Node) {
	type keyed struct {
		key string
		n   *Node
	}
	ks := make([]keyed, len(children))
	for i, c := range children {
		ks[i] = keyed{c.sortKey(), c}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i, k := range ks {
		children[i] = k.n
	}
}

package ptree

import (
	"fmt"

	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// This file implements the paper's polynomial-time computable function
// wdpf(·): every well-designed graph pattern P = P1 UNION ... UNION Pm
// is translated into an equivalent well-designed pattern forest
// {T1, ..., Tm}, and every UNION-free branch into an equivalent wdPT
// in NR normal form (Section 2.1, following Letelier et al.).
//
// The branch translation exploits OPT normal form implicitly: a
// well-designed AND/OPT pattern is flattened into the t-graph of its
// mandatory part plus one child subtree per OPT right-hand side.

// FromPattern translates a UNION-free well-designed graph pattern into
// an equivalent wdPT in NR normal form.
func FromPattern(p sparql.Pattern) (*Tree, error) {
	if !sparql.IsUnionFree(p) {
		return nil, fmt.Errorf("ptree: pattern contains UNION; use WDPF")
	}
	if err := sparql.CheckWellDesigned(p); err != nil {
		return nil, err
	}
	return fromBranch(p)
}

// fromBranch is FromPattern for a branch already checked.
func fromBranch(p sparql.Pattern) (*Tree, error) {
	root := buildNode(p, nil)
	t := newTree(root)
	if err := t.normalizeNR(); err != nil {
		return nil, err
	}
	t.SortChildren()
	if err := t.Validate(true); err != nil {
		return nil, fmt.Errorf("ptree: internal error: translation produced invalid tree: %w", err)
	}
	return t, nil
}

// WDPF is the paper's wdpf(·): it translates a well-designed graph
// pattern into an equivalent wdPF, one tree per UNION branch.
func WDPF(p sparql.Pattern) (Forest, error) {
	if err := sparql.CheckWellDesigned(p); err != nil {
		return nil, err
	}
	return WDPFChecked(p)
}

// WDPFChecked is WDPF for a pattern sparql.CheckWellDesigned has
// already accepted (for a SELECT query: its WHERE pattern, after the
// check of the whole query): the check is not repeated, neither for the
// pattern nor for any of its UNION branches.
func WDPFChecked(p sparql.Pattern) (Forest, error) {
	var f Forest
	for _, branch := range sparql.UnionBranches(p) {
		t, err := fromBranch(branch)
		if err != nil {
			return nil, err
		}
		f = append(f, t)
	}
	return f, nil
}

// MustWDPF is WDPF that panics on error, for tests and examples.
func MustWDPF(p sparql.Pattern) Forest {
	f, err := WDPF(p)
	if err != nil {
		panic(err)
	}
	return f
}

// buildNode flattens the AND-structure of p into one node and turns
// each OPT right-hand side into a child subtree: the standard
// OPT-normal-form construction, valid for well-designed patterns.
// FILTER conditions are split into their top-level conjuncts and
// attached to the node whose subtree is the condition's scope: the
// selection σ_R commutes with the AND-joins flattened into the node
// (vars(R) are untouched by joining more triples) and is evaluated per
// emitted subtree solution, which is exactly σ_R over the subpattern
// the FILTER wrapped.
func buildNode(p sparql.Pattern, parent *Node) *Node {
	n := &Node{Parent: parent}
	var triples []rdf.Triple
	var optChildren []sparql.Pattern
	var collect func(q sparql.Pattern)
	collect = func(q sparql.Pattern) {
		switch b := q.(type) {
		case sparql.Triple:
			triples = append(triples, b.T)
		case sparql.Binary:
			switch b.Op {
			case sparql.OpAnd:
				collect(b.Left)
				collect(b.Right)
			case sparql.OpOpt:
				collect(b.Left)
				optChildren = append(optChildren, b.Right)
			default:
				panic("ptree: UNION below AND/OPT")
			}
		case sparql.Filter:
			collect(b.Where)
			n.Filters = append(n.Filters, sparql.Conjuncts(b.Cond)...)
		case sparql.Select:
			panic("ptree: SELECT below a graph pattern")
		}
	}
	collect(p)
	n.Pattern = hom.NewTGraph(triples...)
	for _, c := range optChildren {
		n.Children = append(n.Children, buildNode(c, n))
	}
	return n
}

// normalizeNR rewrites the tree into NR normal form. A non-root node n
// with vars(n) ⊆ vars(parent(n)) adds no new variables; by the
// well-designedness semantics such a node can be eliminated:
//
//   - if n is a leaf, ⟦P' OPT pat(n)⟧ = ⟦P'⟧ whenever vars(pat(n)) ⊆
//     vars(P'), so n is deleted; its filters go with it — whether the
//     optional extension survives them or not, it adds no bindings;
//   - otherwise each child c of n is replaced by a node labelled
//     pat(n) ∪ pat(c) attached to n's parent, preserving the optional
//     semantics of the grandchildren.
//
// Filters of an eliminated non-leaf n move as follows: a conjunct over
// vars(pat(n)) only is a fixed truth value across every child
// extension (node-level vars are all bound once pat(n) matches), so
// copying it to every merged child preserves exactly the "all children
// drop out together" behaviour. When n has a single child, any
// conjunct — even one over grandchild-subtree variables — moves to the
// merged child, whose emit point sees the same rows n's did. A
// conjunct over several children's subtree variables cannot be placed
// on any one sibling without changing which siblings drop out; that
// pattern shape has no NR-normal-form tree in this fragment and is
// reported as a translation error.
//
// The rewriting preserves ⟦T⟧G (cross-validated against the
// compositional semantics in the integration tests) and terminates
// because every step removes one node.
func (t *Tree) normalizeNR() error {
	for {
		n := t.findNonNR()
		if n == nil {
			return nil
		}
		parent := n.Parent
		if len(n.Children) > 1 {
			nodeVars := map[rdf.Term]bool{}
			for _, v := range n.Pattern.Vars() {
				nodeVars[v] = true
			}
			for _, f := range n.Filters {
				for _, v := range sparql.ExprVars(f) {
					if !nodeVars[v] {
						return fmt.Errorf("ptree: cannot normalize: filter %s on a redundant node spans its optional subtrees", f)
					}
				}
			}
		}
		// Remove n from parent's child list.
		kept := parent.Children[:0]
		for _, c := range parent.Children {
			if c != n {
				kept = append(kept, c)
			}
		}
		parent.Children = kept
		// Re-attach n's children, merged with n's pattern and filters.
		for _, c := range n.Children {
			c.Pattern = c.Pattern.Union(n.Pattern)
			c.Filters = append(append([]sparql.Expr(nil), n.Filters...), c.Filters...)
			c.Parent = parent
			parent.Children = append(parent.Children, c)
		}
		*t = *newTree(t.Root)
	}
}

func (t *Tree) findNonNR() *Node {
	for _, n := range t.nodes {
		if n.Parent != nil && len(newVars(n)) == 0 {
			return n
		}
	}
	return nil
}

// ToPattern converts a wdPT back into a well-designed UNION-free graph
// pattern: the node's triples joined by AND, with one OPT per child,
// and the node's filters wrapped outside the OPTs (their scope is the
// whole subtree). Empty node patterns are not representable as graph
// patterns; the translation panics on them (they cannot arise from
// FromPattern).
func ToPattern(t *Tree) sparql.Pattern {
	var rec func(n *Node) sparql.Pattern
	rec = func(n *Node) sparql.Pattern {
		if len(n.Pattern) == 0 {
			panic("ptree: node with empty pattern cannot be converted")
		}
		parts := make([]sparql.Pattern, 0, len(n.Pattern))
		for _, tr := range n.Pattern {
			parts = append(parts, sparql.Triple{T: tr})
		}
		out := sparql.AndAll(parts...)
		for _, c := range n.Children {
			out = sparql.Opt(out, rec(c))
		}
		for _, f := range n.Filters {
			out = sparql.Filter{Where: out, Cond: f}
		}
		return out
	}
	return rec(t.Root)
}

// ForestToPattern converts a wdPF back into a well-designed pattern in
// UNION normal form.
func ForestToPattern(f Forest) sparql.Pattern {
	parts := make([]sparql.Pattern, len(f))
	for i, t := range f {
		parts[i] = ToPattern(t)
	}
	return sparql.UnionAll(parts...)
}

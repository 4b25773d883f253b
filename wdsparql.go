// Package wdsparql is a from-scratch implementation of well-designed
// SPARQL evaluation and its tractability frontier, reproducing
//
//	Miguel Romero. "The Tractability Frontier of Well-designed SPARQL
//	Queries." PODS 2018 (arXiv:1712.08809).
//
// The package exposes the whole pipeline:
//
//   - RDF graphs and mappings (Parse/ReadGraph, Graph, Mapping);
//   - SPARQL graph patterns over AND / OPT / UNION with a parser and
//     the well-designedness test;
//   - the compositional Pérez-et-al. semantics (EvalCompositional);
//   - well-designed pattern forests (ToForest, the paper's wdpf);
//   - the width measures: core treewidth, branch treewidth
//     (Definition 3), domination width (Definition 2) and local
//     tractability width;
//   - the decision procedures for wdEVAL: the natural algorithm
//     (AlgNaive), the polynomial-time Theorem 1 algorithm based on the
//     existential pebble game (AlgPebble), and the width-aware mixture
//     of the two that PreparedQuery.Ask runs by default (AlgAuto);
//   - the Section 4 hardness reduction from p-CLIQUE (package-level
//     access through SolveCliqueViaReduction).
//
// The production entry point is the prepared-query engine: an Engine
// captures a graph and its options, Prepare runs the static analysis
// of a pattern exactly once, and the returned PreparedQuery streams
// any number of executions — the compile-once / stream-many split that
// makes per-query tractability pay off on repeated workloads.
//
// Quickstart:
//
//	pattern := wdsparql.MustParsePattern(`((?p knows ?q) OPT (?p email ?m))`)
//	data := wdsparql.MustParseGraph("alice knows bob .\nalice email a@x .")
//
//	engine := wdsparql.NewEngine(data)
//	q, err := engine.Prepare(pattern) // static analysis, once
//	if err != nil { ... }             // not well-designed
//
//	for mu := range q.Select(ctx) {   // stream ⟦P⟧G, decoded
//		fmt.Println(mu)
//	}
//	first, _ := q.All(ctx, wdsparql.Limit(10))  // materialise a page
//	n, _ := q.Count(ctx)                        // cardinality, no decode
//	ok, _ := q.Ask(ctx, wdsparql.Mapping{"p": "alice", "q": "bob"})
//
// A PreparedQuery is immutable and safe for concurrent use; cancelling
// ctx stops any stream (and its parallel workers) at the next yield
// boundary.
//
// See examples/ for complete programs and DESIGN.md for the mapping
// from the paper's definitions to packages and the Engine API
// contract.
package wdsparql

import (
	"wdsparql/internal/core"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/reduction"
	"wdsparql/internal/sparql"
)

// Re-exported data-model types.
type (
	// Term is an IRI or a variable.
	Term = rdf.Term
	// Triple is an RDF triple or triple pattern.
	Triple = rdf.Triple
	// Graph is a ground RDF graph with positional indexes.
	Graph = rdf.Graph
	// Mapping is a partial function from variables to IRIs.
	Mapping = rdf.Mapping
	// MappingSet is a deduplicated set of mappings (an evaluation result).
	MappingSet = rdf.MappingSet
	// Pattern is a SPARQL graph pattern over AND / OPT / UNION.
	Pattern = sparql.Pattern
	// Forest is a well-designed pattern forest (the paper's wdPF).
	Forest = ptree.Forest
	// Tree is a well-designed pattern tree (the paper's wdPT).
	Tree = ptree.Tree
	// GTGraph is a generalised t-graph (S, X).
	GTGraph = hom.GTGraph
	// UGraph is an undirected graph (hosts of the clique reduction).
	UGraph = graphalg.UGraph
	// Algorithm selects an evaluation strategy.
	Algorithm = core.Algorithm
)

// Evaluation algorithm selectors.
const (
	// AlgNaive is the Lemma 1 natural algorithm (homomorphism tests).
	AlgNaive = core.AlgNaive
	// AlgPebble is the Theorem 1 algorithm (pebble-game tests).
	AlgPebble = core.AlgPebble
	// AlgAuto is the engine default: budgeted homomorphism tests that
	// fall back to the (dw(P)+1)-pebble game. Exact, like AlgNaive.
	AlgAuto = core.AlgAuto
)

// IRI returns a constant term.
func IRI(v string) Term { return rdf.IRI(v) }

// Var returns a variable term ("x" and "?x" both denote ?x).
func Var(v string) Term { return rdf.Var(v) }

// ParseGraph parses an RDF graph in the line-oriented N-Triples subset.
func ParseGraph(src string) (*Graph, error) { return rdf.ParseGraph(src) }

// MustParseGraph is ParseGraph panicking on error.
func MustParseGraph(src string) *Graph { return rdf.MustParseGraph(src) }

// NewGraph returns an empty RDF graph.
func NewGraph() *Graph { return rdf.NewGraph() }

// ParsePattern parses a SPARQL graph pattern, e.g.
// "((?x p ?y) OPT (?y q ?z))".
func ParsePattern(src string) (Pattern, error) { return sparql.Parse(src) }

// MustParsePattern is ParsePattern panicking on error.
func MustParsePattern(src string) Pattern { return sparql.MustParse(src) }

// IsWellDesigned reports whether the pattern is well-designed.
func IsWellDesigned(p Pattern) bool { return sparql.IsWellDesigned(p) }

// CheckWellDesigned explains the first well-designedness violation.
func CheckWellDesigned(p Pattern) error { return sparql.CheckWellDesigned(p) }

// ToForest translates a well-designed pattern into an equivalent wdPF
// in NR normal form (the paper's wdpf function). The translation is
// memoised through the shared prepare path.
func ToForest(p Pattern) (Forest, error) {
	an, err := analyze(p)
	if err != nil {
		return nil, err
	}
	return an.forest, nil
}

// EvalCompositional computes ⟦P⟧G by the direct Pérez-et-al.
// semantics; exponential in the worst case, exact always.
func EvalCompositional(p Pattern, g *Graph) *MappingSet { return sparql.Eval(p, g) }

// Counterexample witnesses non-containment of two well-designed
// patterns: Mu ∈ ⟦P1⟧G but Mu ∉ ⟦P2⟧G.
type Counterexample = core.Counterexample

// RefuteContainment searches canonical instances for a witness that
// ⟦P1⟧ ⊈ ⟦P2⟧. A returned counterexample is always genuine; absence of
// one does not prove containment (the problem is Π₂ᵖ-complete).
func RefuteContainment(p1, p2 Pattern) (Counterexample, bool, error) {
	an1, err := analyze(p1)
	if err != nil {
		return Counterexample{}, false, err
	}
	an2, err := analyze(p2)
	if err != nil {
		return Counterexample{}, false, err
	}
	ce, ok := core.RefuteContainment(an1.forest, an2.forest)
	return ce, ok, nil
}

// NewUGraph returns an empty undirected graph with n vertices, for use
// as a host of the clique reduction.
func NewUGraph(n int) *UGraph { return graphalg.NewUGraph(n) }

// SolveCliqueViaReduction decides whether the host graph contains a
// k-clique by compiling the Section 4 fpt-reduction to co-wdEVAL and
// evaluating it — Theorem 2 run forwards.
func SolveCliqueViaReduction(k int, h *UGraph) (bool, error) {
	return reduction.SolveClique(k, h)
}

package core

import (
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// Containment refutation for well-designed pattern forests. Deciding
// ⟦F1⟧G ⊆ ⟦F2⟧G for all G is Π₂ᵖ-complete even for wdPTs
// (Pichler–Skritek, the paper's [24]), so this module provides the
// canonical-instance *refutation* procedure: it freezes the pattern of
// every subtree of F1 into a concrete RDF graph and tests whether the
// frozen identity mapping separates the two queries. A returned
// counterexample is always genuine (soundness is immediate — it is an
// actual graph and mapping); absence of a counterexample among the
// canonical instances does not prove containment in general.

// Counterexample witnesses non-containment: Mu ∈ ⟦F1⟧G \ ⟦F2⟧G.
type Counterexample struct {
	G  *rdf.Graph
	Mu rdf.Mapping
}

const frozenPrefix = "frozen:"

// freezeTGraph freezes the variables of a t-graph into IRIs, keeping
// genuine IRIs unchanged (the paper's Ψ from Section 4.2).
func freezeTGraph(ts []rdf.Triple) (*rdf.Graph, rdf.Mapping) {
	conv := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			return rdf.IRI(frozenPrefix + t.Value)
		}
		return t
	}
	g := rdf.NewGraph()
	mu := rdf.NewMapping()
	for _, tr := range ts {
		g.Add(rdf.T(conv(tr.S), conv(tr.P), conv(tr.O)))
		for _, v := range tr.Vars() {
			mu[v.Value] = frozenPrefix + v.Value
		}
	}
	return g, mu
}

// RefuteContainment searches canonical instances for a counterexample
// to ⟦F1⟧ ⊆ ⟦F2⟧. The candidate pool freezes pat(T1') for every
// subtree T1' of F1, optionally merged with pat(T2') of a subtree of
// F2 under the identity correspondence of variable names — the merged
// instances catch separations caused by F2's optional parts becoming
// satisfiable (e.g. ⟦(?x p ?y)⟧ ⊄ ⟦(?x p ?y) OPT (?y q ?z)⟧ needs a
// graph with a q-edge). The probe mapping is always the frozen
// identity on vars(T1'). It returns the first counterexample found, or
// ok=false when every canonical instance is consistent with
// containment (which does NOT prove containment in general).
func RefuteContainment(f1, f2 ptree.Forest) (Counterexample, bool) {
	sub2 := ptree.EnumerateForestSubtrees(f2)
	for _, fs := range ptree.EnumerateForestSubtrees(f1) {
		base := fs.Subtree.Pattern()
		candidates := [][]rdf.Triple{base}
		for _, fs2 := range sub2 {
			candidates = append(candidates, base.Union(fs2.Subtree.Pattern()))
		}
		_, muVars := freezeTGraph(base)
		for _, cand := range candidates {
			g, _ := freezeTGraph(cand)
			if Eval(AlgNaive, 0, f1, g, muVars) && !Eval(AlgNaive, 0, f2, g, muVars) {
				return Counterexample{G: g, Mu: muVars}, true
			}
		}
	}
	return Counterexample{}, false
}

// RefuteEquivalence searches canonical instances of both forests for a
// mapping on which they disagree. dir reports the direction: +1 means
// the witness is in ⟦F1⟧ \ ⟦F2⟧, -1 the converse.
func RefuteEquivalence(f1, f2 ptree.Forest) (Counterexample, int, bool) {
	if ce, ok := RefuteContainment(f1, f2); ok {
		return ce, +1, true
	}
	if ce, ok := RefuteContainment(f2, f1); ok {
		return ce, -1, true
	}
	return Counterexample{}, 0, false
}

// Verify checks that the counterexample is genuine for the claim
// ⟦F1⟧ ⊆ ⟦F2⟧; used by tests and by callers that want a certificate.
func (ce Counterexample) Verify(f1, f2 ptree.Forest) bool {
	return Eval(AlgNaive, 0, f1, ce.G, ce.Mu) && !Eval(AlgNaive, 0, f2, ce.G, ce.Mu)
}

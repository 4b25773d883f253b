package pebble

import (
	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
)

// DecideNoUnaryPruning is Decide with the unary candidate pruning
// disabled: every variable's candidate list is the full domain of G.
// The closure reaches the same fixpoint (singleton constraints are
// still enforced during enumeration), so verdicts are identical; the
// variant exists to quantify the pruning's effect in the ablation
// benchmarks and must not be used in production paths.
func DecideNoUnaryPruning(k int, g hom.GTGraph, mu rdf.Mapping, target *rdf.Graph) bool {
	return oneShot(k, g, mu, target, false).Win
}

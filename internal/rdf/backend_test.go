// Differential-suite instantiations for the unsealed, frozen and
// tiered construction paths (the overlay twins live in overlay_test.go,
// the snapshot round-trips in snapshot_test.go).
package rdf_test

import (
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// The unsealed graph (an empty base, every triple in the overlay)
// against the brute-force model; it is also the suite's reference, so
// this checks the reference itself.
func TestBackendSuiteMap(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		return rdf.GraphOf(ts...)
	})
}

// The frozen CSR backend, through both construction paths: bulk load
// and incremental construction + Freeze.
func TestBackendSuiteFrozenBulk(t *testing.T) {
	backendtest.RunBackendSuite(t, rdf.GraphFromTriples)
}

func TestBackendSuiteFrozenIncremental(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		return rdf.GraphOf(ts...).Freeze()
	})
}

// The sealed delta tier: every three-way split of a few sequences
// (folds and empty tiers included), and the full suite on a base,
// delta and overlay of half, a quarter and a quarter of the triples.
func TestBackendSuiteTiers(t *testing.T) {
	backendtest.RunTierSuite(t)
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		n := len(ts)
		return backendtest.TierGraph(ts, n/2, 3*n/4)
	})
}

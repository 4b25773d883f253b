// Differential-suite instantiations for the map and frozen storage
// backends (the overlay twins live in overlay_test.go, the snapshot
// round-trips in snapshot_test.go).
package rdf_test

import (
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// The map backend against itself: a sanity check that the suite's
// reference construction is self-consistent.
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

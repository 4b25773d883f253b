// Lifecycle and bulk-load tests specific to the frozen CSR backend.
// The read-API cross-validation against the map backend that used to
// live here is now the reusable differential suite of
// internal/rdf/backendtest, instantiated for every backend in
// backend_test.go.
package rdf_test

import (
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
)

func sameTriples(a, b []rdf.IDTriple) bool { return slices.Equal(a, b) }

// Freeze is idempotent, and mutation thaws transparently: a frozen
// graph that is mutated behaves exactly like a never-frozen graph
// with the same history, and can be re-frozen.
func TestFreezeThawLifecycle(t *testing.T) {
	g := gen.Random(12, 40, 3, 99)
	if g.Frozen() {
		t.Fatal("incremental graph must start map-backed")
	}
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Freeze must seal")
	}
	g.Freeze() // idempotent
	n := g.Len()
	g.AddTriple("thaw-s", "thaw-p", "thaw-o")
	if g.Frozen() {
		t.Fatal("mutation must thaw")
	}
	if g.Len() != n+1 || !g.Contains(rdf.T(rdf.IRI("thaw-s"), rdf.IRI("thaw-p"), rdf.IRI("thaw-o"))) {
		t.Fatal("triple lost across thaw")
	}
	g.Freeze()
	if !g.Frozen() || !g.ContainsID(g.TriplesID()[n]) {
		t.Fatal("re-freeze lost the new triple")
	}
	// Re-adding an existing triple on a frozen graph thaws but must
	// not duplicate.
	g.AddTriple("thaw-s", "thaw-p", "thaw-o")
	if g.Len() != n+1 {
		t.Fatal("duplicate insert after thaw")
	}
	// Cloning a frozen graph takes the compact path (no map rebuild):
	// the clone is frozen and state-identical, including occurrence
	// counts, and stays independently mutable.
	g.Freeze()
	c := g.Clone()
	if !c.Frozen() || !slices.Equal(c.TriplesID(), g.TriplesID()) || c.DomSize() != g.DomSize() {
		t.Fatal("frozen clone lost state")
	}
	for _, id := range g.DomIDs() {
		if c.OccurrencesID(id) != g.OccurrencesID(id) {
			t.Fatalf("frozen clone occurrence count differs for %v", id)
		}
	}
	c.AddTriple("clone-s", "clone-p", "clone-o")
	if c.Len() != g.Len()+1 || !g.Frozen() {
		t.Fatal("frozen clone is not independent of its source")
	}
}

// Bulk load is equivalent to incremental construction + Freeze: same
// triples, same dictionary IDs, same insertion order — and ReadGraph
// returns a frozen, bulk-loaded graph.
func TestBulkLoadEquivalence(t *testing.T) {
	ts := []rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("a"), rdf.IRI("q"), rdf.IRI("c")),
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")), // duplicate
		rdf.T(rdf.IRI("c"), rdf.IRI("q"), rdf.IRI("a")),
	}
	inc := rdf.GraphOf(ts...)
	bulk := rdf.GraphFromTriples(ts)
	if !bulk.Frozen() {
		t.Fatal("GraphFromTriples must return a frozen graph")
	}
	if !inc.Equal(bulk) || !bulk.Equal(inc) {
		t.Fatal("bulk and incremental graphs differ")
	}
	if !sameTriples(inc.TriplesID(), bulk.TriplesID()) {
		t.Fatalf("IDs or insertion order differ: %v vs %v", inc.TriplesID(), bulk.TriplesID())
	}
	parsed, err := rdf.ParseGraph("a p b .\nb p c .\na q c .\na p b .\nc q a .")
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Frozen() {
		t.Fatal("ReadGraph must return a frozen graph")
	}
	if !sameTriples(parsed.TriplesID(), inc.TriplesID()) {
		t.Fatal("ReadGraph bulk load changed IDs or order")
	}
}

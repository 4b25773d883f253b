// Lifecycle and bulk-load tests of the sealed base. The read-API
// cross-validation is the reusable differential suite of
// internal/rdf/backendtest, instantiated for every construction path
// in backend_test.go.
package rdf_test

import (
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
)

func sameTriples(a, b []rdf.IDTriple) bool { return slices.Equal(a, b) }

// An Add after Freeze lands in the overlay and leaves the sealed base
// and the ranges handed out of it untouched; Freeze seals the overlay
// in at its sequence position (into a delta tier over the shared base)
// and is idempotent; a Clone shares the sealed tiers but stays
// independent of its source.
func TestFreezeThawLifecycle(t *testing.T) {
	g := gen.Random(12, 40, 3, 99)
	if !g.HasOverlay() {
		t.Fatal("an incremental graph starts with every triple in the overlay")
	}
	g.Freeze()
	if g.HasOverlay() {
		t.Fatal("Freeze must fold the overlay")
	}
	n := g.Len()
	base := g.TriplesID()
	s := base[0][0]
	bySubject := g.MatchID(rdf.IDTriple{s, rdf.VarID(0), rdf.VarID(1)}) // an arena range
	wantBase, wantRange := slices.Clone(base), slices.Clone(bySubject)

	g.AddTriple("new-s", "new-p", "new-o")
	g.Add(g.Dict().DecodeTriple(base[0]))  // in the base: dropped
	g.AddTriple("new-s", "new-p", "new-o") // in the overlay: dropped
	if g.OverlayLen() != 1 || g.Len() != n+1 || !g.Contains(rdf.T(rdf.IRI("new-s"), rdf.IRI("new-p"), rdf.IRI("new-o"))) {
		t.Fatalf("Add after Freeze: overlay %d, len %d, want 1 and %d", g.OverlayLen(), g.Len(), n+1)
	}
	if !sameTriples(base, wantBase) || !sameTriples(bySubject, wantRange) {
		t.Fatal("Add changed the sealed base")
	}

	c := g.Clone()
	g.Freeze()
	folded := g.TriplesID()
	if g.HasOverlay() || len(folded) != n+1 || !sameTriples(folded[:n], wantBase) || !g.ContainsID(folded[n]) {
		t.Fatal("Freeze did not fold the overlay after the base")
	}
	// The one-triple overlay became a delta tier over the shared base;
	// a second Freeze rebuilds neither.
	all := rdf.IDTriple{rdf.VarID(0), rdf.VarID(1), rdf.VarID(2)}
	sealed, delta, _ := g.LookupSegmentsID(all)
	if g.DeltaLen() != 1 || &sealed[0] != &base[0] {
		t.Fatalf("Freeze of a one-triple overlay: delta %d, base shared %v", g.DeltaLen(), &sealed[0] == &base[0])
	}
	g.Freeze()
	if again, againDelta, _ := g.LookupSegmentsID(all); &again[0] != &sealed[0] || &againDelta[0] != &delta[0] {
		t.Fatal("Freeze without an overlay rebuilt a sealed tier")
	}
	if !sameTriples(base, wantBase) || !sameTriples(bySubject, wantRange) {
		t.Fatal("Freeze rewrote the old base in place")
	}

	if c.OverlayLen() != 1 || !sameTriples(c.TriplesID(), folded) || c.DomSize() != g.DomSize() {
		t.Fatal("clone lost state")
	}
	c.AddTriple("clone-s", "clone-p", "clone-o")
	c.Freeze()
	if c.Len() != g.Len()+1 || g.Contains(rdf.T(rdf.IRI("clone-s"), rdf.IRI("clone-p"), rdf.IRI("clone-o"))) {
		t.Fatal("clone is not independent of its source")
	}
}

// Bulk load is equivalent to incremental construction + Freeze: same
// triples, same dictionary IDs, same insertion order — and ReadGraph
// returns a bulk-loaded graph with no overlay.
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
	if bulk.HasOverlay() {
		t.Fatal("GraphFromTriples must return a graph with no overlay")
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
	if parsed.HasOverlay() {
		t.Fatal("ReadGraph must return a graph with no overlay")
	}
	if !sameTriples(parsed.TriplesID(), inc.TriplesID()) {
		t.Fatal("ReadGraph bulk load changed IDs or order")
	}
}

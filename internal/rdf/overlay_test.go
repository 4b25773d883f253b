package rdf_test

import (
	"math/rand"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// splitDelta loads the first half of ts through the sealed bulk path
// and the rest through Add, producing a sealed base plus a live
// overlay. Interning order is unchanged (base triples first, overlay
// triples after), so the dictionary IDs match rdf.GraphOf exactly, as
// the backendtest contract requires.
func splitDelta(ts []rdf.Triple, seal func([]rdf.Triple) *rdf.Graph) *rdf.Graph {
	half := len(ts) / 2
	g := seal(ts[:half])
	for _, t := range ts[half:] {
		g.Add(t)
	}
	return g
}

// The overlay on a frozen base: the full differential suite, so every
// read operation merges base and overlay stream-identically to a graph
// built from scratch.
func TestBackendSuiteOverlayFrozen(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		return splitDelta(ts, rdf.GraphFromTriples)
	})
}

// The generation path end to end: base → Fork → Add into the fork
// (forked dictionary, shared base storage) → the fork must pass the
// full suite while the abandoned receiver is left untouched.
func TestBackendSuiteOverlayFork(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		half := len(ts) / 2
		base := rdf.GraphFromTriples(ts[:half])
		g := base.Fork()
		for _, t := range ts[half:] {
			g.Add(t)
		}
		return g
	})
}

// Fork + Freeze is the re-freeze: the folded generation must carry no
// overlay and be stream-identical to a graph rebuilt from scratch —
// while the original generation still serves the pre-delta state.
func TestOverlayForkCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		full := gen.Random(14, 70, 3, rng.Int63())
		ts := full.Triples()
		half := len(ts) / 2
		base := rdf.GraphFromTriples(ts[:half])
		baseLen := base.Len()
		g := base.Fork()
		for _, tr := range ts[half:] {
			g.Add(tr)
		}
		g.Freeze()
		if g.HasOverlay() || g.OverlayLen() != 0 {
			t.Fatalf("trial %d: overlay survived Freeze", trial)
		}
		ref := rdf.GraphOf(ts...)
		if !backendtest.EqualStreams(ref, g) {
			t.Fatalf("trial %d: compacted generation diverges from rebuilt graph", trial)
		}
		if base.Len() != baseLen || base.HasOverlay() {
			t.Fatalf("trial %d: Freeze of a fork mutated the receiver generation", trial)
		}
		refBase := rdf.GraphOf(ts[:half]...)
		if !backendtest.EqualStreams(refBase, base) {
			t.Fatalf("trial %d: old generation no longer serves the pre-delta state", trial)
		}
	}
}

// Cloning a graph with a non-empty overlay must deep-copy the overlay:
// posting lists rebuilt, never shared. This is the regression pinned
// by the ingest PR — a shallow copy lets a write to one graph's
// overlay leak into the other's candidate streams.
func TestOverlayCloneDeepCopies(t *testing.T) {
	g := rdf.GraphFromTriples([]rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
	})
	g.AddTriple("c", "p", "d")
	cl := g.Clone()
	if cl.OverlayLen() != 1 || !cl.Contains(rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d"))) {
		t.Fatalf("clone lost the overlay: len=%d", cl.OverlayLen())
	}

	// Writes on either side must stay invisible to the other.
	g.AddTriple("d", "p", "e")
	if cl.Contains(rdf.T(rdf.IRI("d"), rdf.IRI("p"), rdf.IRI("e"))) {
		t.Fatal("overlay write to the original leaked into the clone")
	}
	cl.AddTriple("x", "p", "y")
	if g.Contains(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.IRI("y"))) {
		t.Fatal("overlay write to the clone leaked into the original")
	}
	if g.Len() != 4 || cl.Len() != 4 {
		t.Fatalf("Len diverged: original %d, clone %d (want 4 and 4)", g.Len(), cl.Len())
	}

	// The clone's merged stream stays insertion-ordered and complete.
	ref := rdf.GraphOf(
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d")),
		rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.IRI("y")),
	)
	if !backendtest.EqualStreams(ref, cl) {
		t.Fatal("cloned overlay graph diverges from rebuilt reference")
	}
}

// The write path must dedup against both the base and the overlay,
// and Freeze folds the overlay in at its sequence position: a later
// Add lands in a fresh overlay after it.
func TestOverlayDedupAndThawFold(t *testing.T) {
	g := rdf.GraphFromTriples([]rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
	})
	g.AddTriple("a", "p", "b") // already in base
	g.AddTriple("b", "p", "c")
	g.AddTriple("b", "p", "c") // already in overlay
	if g.OverlayLen() != 1 || g.Len() != 2 {
		t.Fatalf("dedup failed: overlay=%d len=%d", g.OverlayLen(), g.Len())
	}

	g.Freeze()
	g.AddTriple("c", "p", "d")
	g.AddTriple("b", "p", "c") // folded into the base: still a duplicate
	if g.OverlayLen() != 1 || g.Len() != 3 {
		t.Fatalf("after the fold: overlay=%d len=%d, want 1 and 3", g.OverlayLen(), g.Len())
	}
	ref := rdf.GraphOf(
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d")),
	)
	if !backendtest.EqualStreams(ref, g) {
		t.Fatal("folded graph diverges from rebuilt reference")
	}
}

// One Add on a sealed graph costs the same whatever the size of the
// base: it probes the base's membership table and inserts into the
// overlay, never touching the base. Each run adds to a fresh
// generation, so every run is the first Add on a sealed base.
func TestAddOnSealedAllocsFlat(t *testing.T) {
	addAllocs := func(n int) float64 {
		g := gen.Random(64, n, 8, 1).Freeze()
		return testing.AllocsPerRun(20, func() {
			g.Fork().AddTriple("new-s", "new-p", "new-o")
		})
	}
	if small, large := addAllocs(1<<10), addAllocs(1<<14); small != large {
		t.Errorf("one Add on a sealed graph allocates %.0f objects at 1k triples, %.0f at 16k", small, large)
	}
}

// A snapshot of an overlay graph must include the overlay: write
// compacts first, and the loaded image equals the rebuilt graph.
func TestOverlaySnapshotCompactsFirst(t *testing.T) {
	ts := []rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("q"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("a")),
	}
	base := rdf.GraphFromTriples(ts[:2])
	g := base.Fork()
	g.Add(ts[2])
	path := t.TempDir() + "/ovl.wdsnap"
	if err := g.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	defer snap.Close()
	if !backendtest.EqualStreams(rdf.GraphOf(ts...), snap.Graph()) {
		t.Fatal("snapshot of an overlay graph diverges from rebuilt reference")
	}
}

// overlayProbes returns, for a few triples of g spanning base and
// overlay, the pattern of every bound/unbound shape over that triple
// with distinct variables (no repeated variable).
func overlayProbes(g *rdf.Graph) []rdf.IDTriple {
	all := g.TriplesID()
	var out []rdf.IDTriple
	for _, src := range []rdf.IDTriple{all[0], all[len(all)/2], all[len(all)-1]} {
		for mask := 0; mask < 8; mask++ {
			var p rdf.IDTriple
			for pos := 0; pos < 3; pos++ {
				if mask&(1<<pos) != 0 {
					p[pos] = src[pos]
				} else {
					p[pos] = rdf.VarID(pos)
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// A warmed count over a frozen base with an overlay adds the
// posting-list lengths (a fully-bound pattern is a membership probe)
// and the segment lookup hands out every list in place: neither
// allocates, with or without a sealed delta tier between the two.
func TestOverlayProbeAllocs(t *testing.T) {
	ts := gen.SocialNetwork(30, 5).Triples()
	n := len(ts)
	for _, g := range []*rdf.Graph{
		splitDelta(ts, rdf.GraphFromTriples),
		backendtest.TierGraph(ts, n/2, 3*n/4),
	} {
		if !g.HasOverlay() {
			t.Fatal("no overlay")
		}
		probes := overlayProbes(g)
		spans := false
		for _, p := range probes {
			base, delta, tail := g.LookupSegmentsID(p)
			spans = spans || (len(base) > 0 && len(tail) > 0 && (g.DeltaLen() == 0 || len(delta) > 0))
		}
		if !spans {
			t.Fatal("no probe reaches every segment")
		}
		probe := func() {
			for _, p := range probes {
				_ = g.MatchCountID(p)
				_, _, _ = g.LookupSegmentsID(p)
			}
		}
		probe()
		if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
			t.Errorf("a warmed probe over %d delta and %d overlay triples allocates %.1f objects",
				g.DeltaLen(), g.OverlayLen(), allocs)
		}
	}
}

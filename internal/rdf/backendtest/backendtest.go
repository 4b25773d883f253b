// Package backendtest is the differential test suite that pins every
// storage backend of rdf.Graph to the map-backed reference. The
// paper's correctness guarantees (Romero, PODS 2018) are proved for
// one abstract graph; the implementation has two physical
// representations (map, frozen CSR) behind one read API, plus the
// delta overlay on a frozen base,
// so the guarantees survive only if the backends are observationally
// equivalent — same triples, same insertion order, byte for byte, on
// every read operation. RunBackendSuite is that equivalence check,
// written once and instantiated per backend, replacing the per-backend
// copy-paste cross-validation tests that preceded it.
package backendtest

import (
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
)

// Trials is the number of random twin graphs the suite draws. Each
// trial also probes ~30 random patterns, so a run covers thousands of
// read operations per backend.
const Trials = 200

// MakeGraph builds the backend under test from an insertion-ordered
// ground triple list. Loading the same list must assign the same
// dictionary IDs in the same order as rdf.GraphOf — every seal path in
// the package (Freeze, GraphBuilder) preserves that.
type MakeGraph func(ts []rdf.Triple) *rdf.Graph

// RunBackendSuite runs the differential suite: Trials random graphs,
// each loaded both as the map-backed reference (rdf.GraphOf) and
// through make, then compared — content AND order — on every read
// operation of the Graph API, including repeated-variable patterns,
// constants absent from the graph, constants interned only after the
// seal, and the thaw-on-mutation / re-seal lifecycle.
func RunBackendSuite(t *testing.T, mk MakeGraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < Trials; trial++ {
		ts := randTriples(rng)
		ref := rdf.GraphOf(ts...)
		got := mk(ts)
		checkTwins(t, trial, ref, got, rng)
		if t.Failed() {
			return
		}
	}
	t.Run("lifecycle", func(t *testing.T) { checkLifecycle(t, mk) })
	t.Run("unseen-constant", func(t *testing.T) { checkUnseenConstant(t, mk) })
	t.Run("empty", func(t *testing.T) { checkEmpty(t, mk) })
}

// randTriples draws a random graph shape (Erdős–Rényi, Turán, social
// network) and returns its triples in insertion order.
func randTriples(rng *rand.Rand) []rdf.Triple {
	var g *rdf.Graph
	switch rng.Intn(3) {
	case 0:
		g = gen.Random(12, 40, 3, rng.Int63())
	case 1:
		g = gen.Turan(8, 3, "r")
	default:
		g = gen.SocialNetwork(10, rng.Int63())
	}
	ts := make([]rdf.Triple, 0, g.Len())
	for _, id := range g.TriplesID() {
		ts = append(ts, g.Dict().DecodeTriple(id))
	}
	return ts
}

// randPattern draws a triple pattern whose constants mostly occur in
// the domain (sometimes not, exercising the dictionary-miss path),
// with repeated variables common ("x" appears twice in the name pool).
func randPattern(rng *rand.Rand, dom []string) rdf.Triple {
	names := []string{"x", "y", "x", "z"}
	term := func() rdf.Term {
		switch rng.Intn(4) {
		case 0:
			return rdf.Var(names[rng.Intn(len(names))])
		case 1:
			return rdf.IRI("not-in-graph")
		default:
			return rdf.IRI(dom[rng.Intn(len(dom))])
		}
	}
	return rdf.T(term(), term(), term())
}

// checkTwins compares every read operation of the two graphs.
func checkTwins(t *testing.T, trial int, ref, got *rdf.Graph, rng *rand.Rand) {
	t.Helper()
	if ref.Len() != got.Len() || ref.DomSize() != got.DomSize() {
		t.Fatalf("trial %d: Len/DomSize: %d/%d reference vs %d/%d backend",
			trial, ref.Len(), ref.DomSize(), got.Len(), got.DomSize())
	}
	// Insertion order and membership, including perturbed absent
	// triples (a rotation of a present triple is almost never present).
	gotIDs := got.TriplesID()
	for i, id := range ref.TriplesID() {
		if gotIDs[i] != id {
			t.Fatalf("trial %d: TriplesID[%d] = %v backend, want %v", trial, i, gotIDs[i], id)
		}
		if !got.ContainsID(id) {
			t.Fatalf("trial %d: backend lost triple %v", trial, id)
		}
		absent := rdf.IDTriple{id[2], id[0], id[1]}
		if ref.ContainsID(absent) != got.ContainsID(absent) {
			t.Fatalf("trial %d: ContainsID(%v) disagrees", trial, absent)
		}
	}
	if !slices.Equal(ref.Dom(), got.Dom()) {
		t.Fatalf("trial %d: Dom disagrees", trial)
	}
	for _, id := range ref.DomIDs() {
		if ref.OccurrencesID(id) != got.OccurrencesID(id) {
			t.Fatalf("trial %d: OccurrencesID(%v): %d vs %d",
				trial, id, ref.OccurrencesID(id), got.OccurrencesID(id))
		}
		if !got.HasIRI(ref.Dict().StringOf(id)) {
			t.Fatalf("trial %d: HasIRI lost %v", trial, id)
		}
	}
	// Pattern probes: every index shape, repeated variables, misses.
	dom := ref.Dom()
	for probe := 0; probe < 30; probe++ {
		pat := randPattern(rng, dom)
		ipr, okr := ref.EncodePattern(pat)
		ipg, okg := got.EncodePattern(pat)
		if okr != okg || ipr != ipg {
			t.Fatalf("trial %d: EncodePattern disagrees on %v", trial, pat)
		}
		if !okr {
			continue
		}
		if cr, cg := ref.MatchCountID(ipr), got.MatchCountID(ipg); cr != cg {
			t.Fatalf("trial %d: MatchCountID(%v) = %d reference vs %d backend", trial, ipr, cr, cg)
		}
		if mr, mg := ref.MatchID(ipr), got.MatchID(ipg); !slices.Equal(mr, mg) {
			t.Fatalf("trial %d: MatchID(%v) differs (content or order):\nreference: %v\nbackend:   %v",
				trial, ipr, mr, mg)
		}
		if cr, cg := ref.CandidatesID(ipr), got.CandidatesID(ipg); !slices.Equal(cr, cg) {
			t.Fatalf("trial %d: CandidatesID(%v) differs (content or order):\nreference: %v\nbackend:   %v",
				trial, ipr, cr, cg)
		}
		rr, er := ref.LookupRangeID(ipr)
		rg, eg := got.LookupRangeID(ipg)
		if er != eg || !slices.Equal(rr, rg) {
			t.Fatalf("trial %d: LookupRangeID(%v) differs", trial, ipr)
		}
		checkSegments(t, trial, ref, got, ipg)
	}
	for _, p := range segmentShapes(ref) {
		checkSegments(t, trial, ref, got, p)
	}
	// Selectivity catalog (cardstats.go): global and per-predicate
	// distinct counts are exact on every backend. Every IRI of dom(G) — every predicate among them — is probed at
	// both positions, twice: the second probe reads the backend's memo.
	for pos := 0; pos < 3; pos++ {
		if dr, dg := ref.DistinctCount(pos), got.DistinctCount(pos); dr != dg || got.DistinctCount(pos) != dg {
			t.Fatalf("trial %d: DistinctCount(%d) = %d backend, want %d", trial, pos, dg, dr)
		}
	}
	for _, p := range ref.DomIDs() {
		for _, pos := range []int{0, 2} {
			dr, dg := ref.DistinctUnderPredicate(p, pos), got.DistinctUnderPredicate(p, pos)
			if again := got.DistinctUnderPredicate(p, pos); again != dg {
				t.Fatalf("trial %d: DistinctUnderPredicate(%v, pos %d) = %d, then %d", trial, p, pos, dg, again)
			}
			if dr != dg {
				t.Fatalf("trial %d: DistinctUnderPredicate(%v, pos %d) = %d backend, want %d",
					trial, p, pos, dg, dr)
			}
		}
	}
}

// segmentShapes returns, for the first, middle and last triple of g in
// insertion order (on an overlay twin the last one is an overlay
// triple), the pattern of every shape over that triple: each position
// holds the triple's constant or one of three variables, so all-bound,
// all-variable and every repeated-variable shape occur. IDs are the
// reference's, which every backend shares.
func segmentShapes(g *rdf.Graph) []rdf.IDTriple {
	all := g.TriplesID()
	if len(all) == 0 {
		return nil
	}
	var out []rdf.IDTriple
	for _, src := range []rdf.IDTriple{all[0], all[len(all)/2], all[len(all)-1]} {
		for code := 0; code < 4*4*4; code++ {
			var p rdf.IDTriple
			for pos, c := 0, code; pos < 3; pos, c = pos+1, c/4 {
				if c%4 == 0 {
					p[pos] = src[pos]
				} else {
					p[pos] = rdf.VarID(c%4 - 1)
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// checkSegments pins the two-segment lookup: base ++ tail is the
// candidate list (content and order) on the backend and on the
// reference, the exact flag agrees, and the count is the number of
// matches found walking both segments — so a count that drops the
// overlay or counts a triple twice fails.
func checkSegments(t *testing.T, trial int, ref, got *rdf.Graph, p rdf.IDTriple) {
	t.Helper()
	base, tail, exact := got.LookupSegmentsID(p)
	joined := slices.Concat(base, tail)
	if !slices.Equal(joined, got.CandidatesID(p)) || !slices.Equal(joined, ref.CandidatesID(p)) {
		t.Fatalf("trial %d: LookupSegmentsID(%v) = %v ++ %v, want CandidatesID %v",
			trial, p, base, tail, ref.CandidatesID(p))
	}
	if _, er := ref.LookupRangeID(p); exact != er {
		t.Fatalf("trial %d: LookupSegmentsID(%v) exact = %v, want %v", trial, p, exact, er)
	}
	hits := 0
	for _, tr := range joined {
		if rdf.MatchesPatternID(p, tr) {
			hits++
		}
	}
	if exact && hits != len(joined) {
		t.Fatalf("trial %d: LookupSegmentsID(%v) claims exact, %d of %d candidates match", trial, p, hits, len(joined))
	}
	if c := got.MatchCountID(p); c != hits {
		t.Fatalf("trial %d: MatchCountID(%v) = %d, the segments hold %d matches", trial, p, c, hits)
	}
}

// checkLifecycle verifies that mutation thaws the backend to the map
// representation transparently (no triple lost, no duplicate admitted)
// and that the thawed graph can be re-sealed.
func checkLifecycle(t *testing.T, mk MakeGraph) {
	t.Helper()
	ts := randTriples(rand.New(rand.NewSource(7)))
	g := mk(ts)
	n := g.Len()
	g.AddTriple("thaw-s", "thaw-p", "thaw-o")
	if g.Frozen() {
		t.Fatal("mutation must thaw to the map backend")
	}
	if g.Len() != n+1 || !g.Contains(rdf.T(rdf.IRI("thaw-s"), rdf.IRI("thaw-p"), rdf.IRI("thaw-o"))) {
		t.Fatal("triple lost across thaw")
	}
	g.AddTriple("thaw-s", "thaw-p", "thaw-o") // duplicate must be dropped
	if g.Len() != n+1 {
		t.Fatal("duplicate insert after thaw")
	}
	// Re-seal; the twin is the thawed graph itself.
	checkTwins(t, -1, g, g.Clone().Freeze(), rand.New(rand.NewSource(11)))
	if t.Failed() {
		t.Fatal("re-seal through Freeze broke agreement")
	}
}

// checkUnseenConstant verifies that pattern constants interned only
// after the seal (the dictionary grows, the sealed offsets do not)
// match nothing rather than read out of bounds.
func checkUnseenConstant(t *testing.T, mk MakeGraph) {
	t.Helper()
	g := mk([]rdf.Triple{rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b"))})
	late := g.Dict().InternIRI("late")
	for _, p := range []rdf.IDTriple{
		{late, rdf.VarID(0), rdf.VarID(1)},
		{rdf.VarID(0), late, rdf.VarID(1)},
		{rdf.VarID(0), rdf.VarID(1), late},
		{late, late, late},
	} {
		if g.MatchCountID(p) != 0 || len(g.CandidatesID(p)) != 0 || g.ContainsID(rdf.IDTriple{late, late, late}) {
			t.Fatalf("pattern %v with post-seal constant matched", p)
		}
	}
}

// checkEmpty verifies the degenerate graph.
func checkEmpty(t *testing.T, mk MakeGraph) {
	t.Helper()
	g := mk(nil)
	if g.Len() != 0 || g.DomSize() != 0 {
		t.Fatal("empty graph misbehaves")
	}
	if got := g.MatchCountID(rdf.IDTriple{rdf.VarID(0), rdf.VarID(1), rdf.VarID(2)}); got != 0 {
		t.Fatalf("empty MatchCountID = %d", got)
	}
}

// EqualStreams reports whether two graphs agree on the full
// enumeration stream — content AND order, compared through each
// graph's own dictionary, so it also catches dictionary divergence.
// It is the any-two-graphs agreement check used outside the suite
// (overlay compaction, snapshot round-trips, fuzz drivers).
func EqualStreams(a, b *rdf.Graph) bool {
	ta, tb := a.TriplesID(), b.TriplesID()
	if len(ta) != len(tb) || a.DomSize() != b.DomSize() {
		return false
	}
	for i := range ta {
		if a.Dict().DecodeTriple(ta[i]) != b.Dict().DecodeTriple(tb[i]) {
			return false
		}
	}
	return true
}

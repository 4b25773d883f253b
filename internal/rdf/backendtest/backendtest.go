// Package backendtest is the differential test suite that pins every
// storage layout of rdf.Graph to an independent brute-force model and
// to the unsealed reference. The paper's correctness guarantees
// (Romero, PODS 2018) are proved for one abstract graph; the
// implementation stores a graph as a sealed CSR base (possibly empty),
// a sealed delta tier and a write overlay, split anywhere between the
// three, loaded in bulk or from a snapshot, so the guarantees survive
// only if every split is observationally equivalent — same triples,
// same insertion order, byte for byte, on every read operation.
// RunBackendSuite is that equivalence check, written once and
// instantiated per construction path; RunTierSuite runs it over every
// three-way split of a few sequences.
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
// dictionary IDs in the same order as rdf.GraphOf — every construction
// path in the package (Add, Freeze, GraphBuilder, snapshots) preserves
// that.
type MakeGraph func(ts []rdf.Triple) *rdf.Graph

// RunBackendSuite runs the differential suite: Trials random graphs
// plus one large one, each loaded both as the unsealed reference
// (rdf.GraphOf: every triple in the overlay) and through make, then
// compared — content AND order — on every read operation of the Graph
// API, including repeated-variable patterns, constants absent from the
// graph and constants interned only after the seal. Every pattern
// probe is also checked against the brute-force model: the input
// triples, deduplicated in order, filtered by rdf.MatchesPatternID.
// The subtests pin the write lifecycle, unseen constants and the empty
// graph.
func RunBackendSuite(t *testing.T, mk MakeGraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < Trials; trial++ {
		ts := randTriples(rng)
		checkTrial(t, trial, ts, mk, rng)
		if t.Failed() {
			return
		}
	}
	// The large trial: subject and object groups average 50 triples,
	// above rdf's smallGroup (32), so two-key probes take the galloping
	// branch of the base's range search.
	large := triplesOf(gen.Random(20, 1000, 3, 1))
	checkTrial(t, Trials, large, mk, rng)
	t.Run("lifecycle", func(t *testing.T) { checkLifecycle(t, mk) })
	t.Run("unseen-constant", func(t *testing.T) { checkUnseenConstant(t, mk) })
	t.Run("empty", func(t *testing.T) { checkEmpty(t, mk) })
}

// checkTrial loads ts as the reference and through mk and compares
// the two, and the backend with the model.
func checkTrial(t *testing.T, trial int, ts []rdf.Triple, mk MakeGraph, rng *rand.Rand) {
	t.Helper()
	got := mk(ts)
	checkTwins(t, trial, rdf.GraphOf(ts...), got, modelOf(got, ts), rng)
}

// modelOf encodes ts, deduplicated in first-occurrence order, with g's
// dictionary: the graph's insertion-order content, computed without
// any index.
func modelOf(g *rdf.Graph, ts []rdf.Triple) []rdf.IDTriple {
	seen := map[rdf.Triple]bool{}
	var out []rdf.IDTriple
	for _, tr := range ts {
		if seen[tr] {
			continue
		}
		seen[tr] = true
		id, _ := g.EncodePattern(tr)
		out = append(out, id)
	}
	return out
}

// randTriples draws a random graph shape (Erdős–Rényi, Turán, social
// network) and returns its triples in insertion order.
func randTriples(rng *rand.Rand) []rdf.Triple {
	switch rng.Intn(3) {
	case 0:
		return triplesOf(gen.Random(12, 40, 3, rng.Int63()))
	case 1:
		return triplesOf(gen.Turan(8, 3, "r"))
	default:
		return triplesOf(gen.SocialNetwork(10, rng.Int63()))
	}
}

// triplesOf returns g's triples in insertion order.
func triplesOf(g *rdf.Graph) []rdf.Triple {
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

// checkTwins compares every read operation of the two graphs, and
// every pattern probe of got with the model (got's content in
// insertion order).
func checkTwins(t *testing.T, trial int, ref, got *rdf.Graph, model []rdf.IDTriple, rng *rand.Rand) {
	t.Helper()
	if !slices.Equal(got.TriplesID(), model) {
		t.Fatalf("trial %d: TriplesID = %v, model %v", trial, got.TriplesID(), model)
	}
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
		checkModel(t, trial, got, model, ipg)
	}
	for _, p := range segmentShapes(ref) {
		checkSegments(t, trial, ref, got, p)
		checkModel(t, trial, got, model, p)
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

// checkSegments pins the tiered lookup: base ++ delta ++ overlay is
// the candidate list (content and order) on the backend and on the
// reference, ExactPattern agrees with LookupRangeID's flag and holds
// only when every candidate matches, and the count is the number of
// matches found walking the segments — so a count that drops a tier
// or counts a triple twice fails.
func checkSegments(t *testing.T, trial int, ref, got *rdf.Graph, p rdf.IDTriple) {
	t.Helper()
	segs := lookup(got, p)
	joined := slices.Concat(segs[:]...)
	if !slices.Equal(joined, got.CandidatesID(p)) || !slices.Equal(joined, ref.CandidatesID(p)) {
		t.Fatalf("trial %d: LookupSegmentsID(%v) = %v, want CandidatesID %v",
			trial, p, segs, ref.CandidatesID(p))
	}
	exact := rdf.ExactPattern(p)
	if _, er := ref.LookupRangeID(p); exact != er {
		t.Fatalf("trial %d: ExactPattern(%v) = %v, LookupRangeID says %v", trial, p, exact, er)
	}
	hits := 0
	for _, tr := range joined {
		if rdf.MatchesPatternID(p, tr) {
			hits++
		}
	}
	if exact && hits != len(joined) {
		t.Fatalf("trial %d: ExactPattern(%v) holds, but %d of %d candidates match", trial, p, hits, len(joined))
	}
	if c := got.MatchCountID(p); c != hits {
		t.Fatalf("trial %d: MatchCountID(%v) = %d, the segments hold %d matches", trial, p, c, hits)
	}
}

// checkModel pins one probe to the brute-force model: MatchID is the
// model filtered by the pattern, in model order, and MatchCountID its
// length.
func checkModel(t *testing.T, trial int, g *rdf.Graph, model []rdf.IDTriple, p rdf.IDTriple) {
	t.Helper()
	var want []rdf.IDTriple
	for _, tr := range model {
		if rdf.MatchesPatternID(p, tr) {
			want = append(want, tr)
		}
	}
	if got := g.MatchID(p); !slices.Equal(got, want) {
		t.Fatalf("trial %d: MatchID(%v) = %v, model %v", trial, p, got, want)
	}
	if c := g.MatchCountID(p); c != len(want) {
		t.Fatalf("trial %d: MatchCountID(%v) = %d, model %d", trial, p, c, len(want))
	}
}

// checkLifecycle pins the write rule on the backend: an Add after
// Freeze lands in the overlay and leaves the sealed base — and the
// ranges of it handed out before — untouched; Freeze seals the overlay
// in at its sequence position, into a delta tier while that stays
// smaller than the base, and is idempotent; a Clone stays independent
// of its source.
func checkLifecycle(t *testing.T, mk MakeGraph) {
	t.Helper()
	ts := randTriples(rand.New(rand.NewSource(7)))
	g := mk(ts).Freeze()
	model := modelOf(g, ts)
	all := rdf.IDTriple{rdf.VarID(0), rdf.VarID(1), rdf.VarID(2)}
	bySubject := rdf.IDTriple{model[0][0], rdf.VarID(0), rdf.VarID(1)}
	wholeBefore, groupBefore := g.MatchID(all), g.MatchID(bySubject) // alias the base
	whole, group := slices.Clone(wholeBefore), slices.Clone(groupBefore)

	g.Add(ts[0]) // in the base: dropped
	g.AddTriple("new-s", "new-p", "new-o")
	g.AddTriple("new-s", "new-p", "new-o") // in the overlay: dropped
	added, _ := g.EncodePattern(rdf.T(rdf.IRI("new-s"), rdf.IRI("new-p"), rdf.IRI("new-o")))
	if g.OverlayLen() != 1 || g.Len() != len(model)+1 || !g.ContainsID(added) {
		t.Fatalf("Add after Freeze: overlay %d, len %d, want 1 and %d", g.OverlayLen(), g.Len(), len(model)+1)
	}
	segs := lookup(g, all)
	if !slices.Equal(segs[0], whole) || !slices.Equal(segs[2], []rdf.IDTriple{added}) {
		t.Fatalf("Add after Freeze changed the base or missed the overlay: %v", segs)
	}
	model = append(model, added)

	c := g.Clone()
	g.Freeze()
	folded := g.TriplesID()
	if g.HasOverlay() || !slices.Equal(folded, model) {
		t.Fatalf("Freeze sealed out of sequence: %v, want %v", folded, model)
	}
	// One triple on a base of several: sealed into a delta tier, the
	// base shared as it was.
	segs = lookup(g, all)
	if g.DeltaLen() != 1 || &segs[0][0] != &wholeBefore[0] {
		t.Fatalf("Freeze of a one-triple overlay: delta %d, base shared %v", g.DeltaLen(), &segs[0][0] == &wholeBefore[0])
	}
	g.Freeze()
	if again := lookup(g, all); !sameSegments(again, segs) {
		t.Fatal("Freeze without an overlay rebuilt a sealed tier")
	}
	if !slices.Equal(wholeBefore, whole) || !slices.Equal(groupBefore, group) {
		t.Fatal("Freeze rewrote the old base in place")
	}

	c.AddTriple("clone-s", "clone-p", "clone-o")
	if c.Len() != len(model)+1 || g.Len() != len(model) || g.Contains(rdf.T(rdf.IRI("clone-s"), rdf.IRI("clone-p"), rdf.IRI("clone-o"))) {
		t.Fatalf("clone is not independent: clone %d, source %d triples", c.Len(), g.Len())
	}
	cloneAdded, _ := c.EncodePattern(rdf.T(rdf.IRI("clone-s"), rdf.IRI("clone-p"), rdf.IRI("clone-o")))
	checkTwins(t, -1, c, c.Clone().Freeze(), append(model, cloneAdded), rand.New(rand.NewSource(11)))
}

// lookup returns LookupSegmentsID's three segments as one value.
func lookup(g *rdf.Graph, p rdf.IDTriple) [3][]rdf.IDTriple {
	base, delta, tail := g.LookupSegmentsID(p)
	return [3][]rdf.IDTriple{base, delta, tail}
}

// sameSegments reports whether two lookups alias the same storage,
// segment by segment.
func sameSegments(a, b [3][]rdf.IDTriple) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && &a[i][0] != &b[i][0]) {
			return false
		}
	}
	return true
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

// TierGraph rebuilds ts as a tiered graph: ts[:cuts[0]] bulk-loaded
// as the base, then each later segment ts[cuts[i-1]:cuts[i]] added to
// a fork and sealed by Freeze, and the rest left in the write overlay.
// A sealed segment lands in the delta tier while that stays smaller
// than the base and folds everything into a fresh base otherwise, so
// the cuts decide which tiers end up empty. Interning order is ts's
// order, so the IDs match rdf.GraphOf(ts...).
func TierGraph(ts []rdf.Triple, cuts ...int) *rdf.Graph {
	g := rdf.GraphFromTriples(ts[:cuts[0]]).Fork()
	for i, c := range cuts[1:] {
		for _, tr := range ts[cuts[i]:c] {
			g.Add(tr)
		}
		g.Freeze()
	}
	for _, tr := range ts[cuts[len(cuts)-1]:] {
		g.Add(tr)
	}
	return g
}

// RunTierSuite splits each of a few triple sequences into base, delta
// tier and overlay at every cut (a, b), 0 ≤ a ≤ b ≤ n: base ts[:a],
// delta ts[a:b] (sealed in two Freezes, so a delta is also rebuilt
// over an existing one), overlay ts[b:]. A seal that would make the
// delta as large as the base folds it into the base instead (the
// suite replays that rule and checks the tier sizes), and a = 0,
// a = b or b = n leave a tier empty. Every split is checked against
// the unsealed reference and the brute-force model on every probe,
// count, catalog value and the TriplesID order.
func RunTierSuite(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(131))
	seqs := [][]rdf.Triple{
		triplesOf(gen.Random(8, 24, 3, 5)),
		triplesOf(gen.SocialNetwork(4, 9)),
		triplesOf(gen.Turan(5, 2, "r")),
	}
	for si, ts := range seqs {
		ref := rdf.GraphOf(ts...)
		for a := 0; a <= len(ts); a++ {
			for b := a; b <= len(ts); b++ {
				got := TierGraph(ts, a, (a+b)/2, b)
				// The fold rule, replayed: a seal folds exactly when
				// the delta would reach the base's size.
				base, delta := a, 0
				for _, n := range []int{(a+b)/2 - a, b - (a+b)/2} {
					switch {
					case n == 0:
					case delta+n < base:
						delta += n
					default:
						base, delta = base+delta+n, 0
					}
				}
				if got.DeltaLen() != delta || got.OverlayLen() != len(ts)-b {
					t.Fatalf("seq %d cut (%d, %d): delta %d and overlay %d triples, want %d and %d",
						si, a, b, got.DeltaLen(), got.OverlayLen(), delta, len(ts)-b)
				}
				checkTwins(t, si*10000+a*100+b, ref, got, modelOf(got, ts), rng)
				if t.Failed() {
					return
				}
			}
		}
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

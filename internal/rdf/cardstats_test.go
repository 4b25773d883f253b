package rdf_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// catalogOf reads every catalog count of g: the three global distinct
// counts, then per IRI of dom(ref) (a superset of the predicates) its
// distinct subjects and objects as a predicate.
func catalogOf(g, ref *rdf.Graph) []int {
	var out []int
	for pos := 0; pos < 3; pos++ {
		out = append(out, g.DistinctCount(pos))
	}
	for _, p := range ref.DomIDs() {
		out = append(out, g.DistinctUnderPredicate(p, 0), g.DistinctUnderPredicate(p, 2))
	}
	return out
}

// The overlay's catalog deltas are memoised per overlay state. Probing,
// adding deltas — new keys, new (predicate, value) pairs, and pairs the
// base already holds — and probing again must give exactly what a
// from-scratch computation gives: the unsealed reference (all of it
// overlay, over an empty base), and a frozen clone (one new base, no
// overlay).
func TestOverlayCatalogFollowsDeltas(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.T(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	base := []rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c"), tr("c", "q", "a")}
	batches := [][]rdf.Triple{
		{tr("a", "q", "b")}, // new subject and object under q
		{
			tr("d", "r", "e"), // three new keys
			tr("a", "p", "c"), // (p, subject a) and (p, object c) both in the base
			tr("b", "q", "a"), // new subject b under q, object a already there
			tr("c", "p", "d"), // new object d under p
		},
	}
	g := rdf.GraphFromTriples(base)
	all := append([]rdf.Triple{}, base...)
	var prev []int
	for bi, batch := range batches {
		for _, t := range batch {
			g.Add(t)
		}
		all = append(all, batch...)
		ref := rdf.GraphOf(all...)
		got := catalogOf(g, ref)
		if again := catalogOf(g, ref); !slices.Equal(got, again) {
			t.Fatalf("batch %d: memoised probe %v, first probe %v", bi, again, got)
		}
		if fresh := catalogOf(g.Clone().Freeze(), ref); !slices.Equal(got, fresh) {
			t.Fatalf("batch %d: catalog %v, from scratch %v", bi, got, fresh)
		}
		if want := catalogOf(ref, ref); !slices.Equal(got, want) {
			t.Fatalf("batch %d: catalog %v, unsealed reference %v", bi, got, want)
		}
		if slices.Equal(got, prev) {
			t.Fatalf("batch %d: the batch moved no count; the test cannot see a stale memo", bi)
		}
		prev = got
	}
}

// After the first call, catalog probes — on a frozen base, and with an
// overlay on it — are lookups: they allocate nothing.
func TestCatalogProbeAllocs(t *testing.T) {
	ts := rdf.GraphOf(
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("q"), rdf.IRI("a")),
		rdf.T(rdf.IRI("a"), rdf.IRI("q"), rdf.IRI("c")),
	).Triples()
	for name, g := range map[string]*rdf.Graph{
		"frozen":     rdf.GraphFromTriples(ts),
		"frozen+ovl": splitDelta(ts, rdf.GraphFromTriples),
	} {
		preds := []rdf.TermID{}
		for _, p := range []string{"p", "q"} {
			id, _ := g.Dict().LookupIRI(p)
			preds = append(preds, id)
		}
		probe := func() {
			for pos := 0; pos < 3; pos++ {
				_ = g.DistinctCount(pos)
			}
			for _, p := range preds {
				_ = g.DistinctUnderPredicate(p, 0)
				_ = g.DistinctUnderPredicate(p, 2)
			}
		}
		probe()
		if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
			t.Errorf("%s: a warmed catalog probe allocates %.1f objects", name, allocs)
		}
	}
}

// On random graphs split into a base, a delta tier and an overlay, every
// catalog count equals a brute-force count over the distinct triples:
// the delta's share adds exactly the keys and (predicate, value) pairs
// the base lacks, the overlay's those neither sealed tier has.
func TestCatalogOverTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		nS, nP, nO := 2+rng.Intn(12), 1+rng.Intn(5), 2+rng.Intn(12)
		n := 8 + rng.Intn(80)
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = rdf.T(rdf.IRI(fmt.Sprintf("n%d", rng.Intn(nS))), rdf.IRI(fmt.Sprintf("p%d", rng.Intn(nP))),
				rdf.IRI(fmt.Sprintf("n%d", rng.Intn(nO))))
		}
		g := backendtest.TierGraph(ts, n/2, 3*n/4)
		var keys [3]map[string]bool
		for pos := range keys {
			keys[pos] = map[string]bool{}
		}
		under := map[string][2]map[string]bool{}
		for _, tr := range ts {
			terms := tr.Terms()
			for pos, term := range terms {
				keys[pos][term.Value] = true
			}
			u, ok := under[terms[1].Value]
			if !ok {
				u = [2]map[string]bool{{}, {}}
				under[terms[1].Value] = u
			}
			u[0][terms[0].Value], u[1][terms[2].Value] = true, true
		}
		for pos := 0; pos < 3; pos++ {
			if got, want := g.DistinctCount(pos), len(keys[pos]); got != want {
				t.Fatalf("trial %d (delta %d, overlay %d): DistinctCount(%d) = %d, want %d",
					trial, g.DeltaLen(), g.OverlayLen(), pos, got, want)
			}
		}
		for _, id := range g.DomIDs() {
			u := under[g.Dict().StringOf(id)]
			for i, pos := range []int{0, 2} {
				if got, want := g.DistinctUnderPredicate(id, pos), len(u[i]); got != want {
					t.Fatalf("trial %d (delta %d, overlay %d): DistinctUnderPredicate(%s, %d) = %d, want %d",
						trial, g.DeltaLen(), g.OverlayLen(), g.Dict().StringOf(id), pos, got, want)
				}
			}
		}
	}
}

// The first catalog fill of a sealed base allocates its per-predicate
// map and counters indexed by TermID, and nothing that grows with the
// triple count: over one dictionary, a base of 40× the triples — and
// about 5× the (predicate, value) pairs — costs the same objects and
// bytes.
func TestCatalogFillAllocs(t *testing.T) {
	const nS, nP, nO = 128, 8, 128
	build := func(n int) *rdf.Graph {
		var ts []rdf.Triple
		tr := func(s, p, o int) rdf.Triple {
			return rdf.T(rdf.IRI(fmt.Sprintf("s%d", s)), rdf.IRI(fmt.Sprintf("p%d", p)), rdf.IRI(fmt.Sprintf("o%d", o)))
		}
		for i := 0; i < nS; i++ { // every IRI, whatever n
			ts = append(ts, tr(i, i%nP, i))
		}
		for i := 0; len(ts) < n; i++ { // a permutation of all nS·nP·nO triples
			j := i * 7919 % (nS * nP * nO)
			ts = append(ts, tr(j%nS, j/nS%nP, j/(nS*nP)))
		}
		return rdf.GraphFromTriples(ts)
	}
	fill := func(g *rdf.Graph) (objects, bytes uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = g.DistinctCount(0)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	small, large := build(200), build(8_000)
	if small.Dict().NumIRIs() != large.Dict().NumIRIs() || large.Len() < 39*small.Len() {
		t.Fatalf("graphs of %d and %d triples over %d and %d IRIs", small.Len(), large.Len(),
			small.Dict().NumIRIs(), large.Dict().NumIRIs())
	}
	so, sb := fill(small)
	lo, lb := fill(large)
	if so != lo || sb != lb {
		t.Errorf("first fill: %d objects, %d bytes at %d triples; %d objects, %d bytes at %d",
			so, sb, small.Len(), lo, lb, large.Len())
	}
}

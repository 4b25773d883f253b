package rdf_test

import (
	"slices"
	"testing"

	"wdsparql/internal/rdf"
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

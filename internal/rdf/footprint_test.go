package rdf

import (
	"fmt"
	"slices"
	"testing"
)

// TestSealedFootprint pins the sealed layout: one secondarily-sorted
// arena per key pair, and every two-key range found in its subject or
// object group.
func TestSealedFootprint(t *testing.T) {
	t.Run("image-bytes", func(t *testing.T) {
		// The generator of BenchmarkLoadSnapshot: 200,000 triples over
		// 50,000 subjects, 16 predicates and a skewed object range.
		const triples = 200_000
		b := NewGraphBuilder(triples)
		x := uint64(1)
		for b.Len() < triples {
			x = x*6364136223846793005 + 1442695040888963407
			s, p := (x>>33)%50_000, (x>>20)%16
			o := (x >> 40) % (1 + (x>>10)%60_000)
			b.AddTriple(fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", p), fmt.Sprintf("o%d", o))
		}
		g := b.Graph()
		n, ni := g.Len(), g.dict.NumIRIs()
		secs := snapshotSections(g)
		got := 0
		for _, s := range secs {
			if s.kind != secDictOffs && s.kind != secDictBlob {
				got += len(s.data)
			}
		}
		// Per triple: the triples, three primary and three secondary
		// arenas of 12 bytes, three 4-byte key columns. Per IRI: three
		// offset arrays and the occurrence table. Then the membership
		// table. A second orientation of any pair would add 16 bytes per
		// triple.
		want := (1+3+3)*12*n + 3*4*n + 3*4*(ni+1) + 4*ni + 4*membSize(n)
		if len(secs) != len(snapKinds) || got > want {
			t.Fatalf("%d sections of %.1f B/triple (dictionary excluded), want %d of at most %.1f",
				len(secs), float64(got)/float64(n), len(snapKinds), float64(want)/float64(n))
		}
	})

	t.Run("ranges", func(t *testing.T) {
		// A hub subject and a hub object, each in more than smallGroup
		// triples of either tier over several predicates, among small
		// groups: the range search both gallops and scans. Each hub
		// cycles through its predicates, so every range interleaves
		// with the others in insertion order.
		var ts []Triple
		iri := func(f string, i int) Term { return IRI(fmt.Sprintf(f, i)) }
		for i := 0; i < 120; i++ {
			ts = append(ts,
				T(IRI("hub"), iri("p%d", i%6), iri("o%d", i/6)),
				T(iri("s%d", i/6), iri("p%d", i%6), IRI("sink")),
				T(iri("s%d", i%20), iri("p%d", i%4), iri("o%d", i*7%20)))
		}
		g := GraphFromTriples(ts[:len(ts)*3/5])
		for _, tr := range ts[len(ts)*3/5:] {
			g.Add(tr)
		}
		g.Freeze()
		if g.dlt == nil {
			t.Fatal("the graph has no delta tier")
		}
		hub, _ := g.dict.LookupIRI("hub")
		sink, _ := g.dict.LookupIRI("sink")
		ni := TermID(g.dict.NumIRIs())
		for name, f := range map[string]*frozenView{"base": g.frz, "delta": g.dlt.frozenView} {
			if tierGroupLen(f, 0, hub) <= smallGroup || tierGroupLen(f, 2, sink) <= smallGroup {
				t.Fatalf("%s: hub groups of %d and %d triples, want more than %d",
					name, tierGroupLen(f, 0, hub), tierGroupLen(f, 2, sink), smallGroup)
			}
			v0 := VarID(0)
			for a := TermID(0); a <= ni; a++ { // ni: an ID past the dictionary
				for b := TermID(0); b <= ni; b++ {
					for _, p := range []IDTriple{{a, b, v0}, {v0, a, b}, {a, v0, b}} {
						var want []IDTriple
						for _, t := range f.all {
							if MatchesPatternID(p, t) {
								want = append(want, t)
							}
						}
						if got := f.candidates(p); !slices.Equal(got, want) {
							t.Fatalf("%s: candidates(%v) = %v, want %v", name, p, got, want)
						}
					}
				}
			}
		}
	})
}

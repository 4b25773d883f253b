package core_test

// Cross-validation of the frozen storage backend at the enumeration
// layer: ForestProgram.Rows must yield the IDENTICAL stream — content
// and order, byte for byte — on a frozen graph and on its unsealed
// twin (every triple in the write overlay), for randomized well-designed forests. This is the determinism
// invariant the ROADMAP pins for the enumeration pipeline: the storage
// backend must be unobservable through the row iterator.

import (
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// collectRows materialises the stream of a compiled forest as cloned
// rows.
func collectRows(f ptree.Forest, g *rdf.Graph) []rdf.Row {
	var out []rdf.Row
	core.CompileForest(f, g).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

func TestFrozenEnumerationStreamIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tried, used := 0, 0
	for used < 120 && tried < 5000 {
		tried++
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatalf("case %d: wdpf: %v", used, err)
		}
		gm := randData(rng)
		gf := gm.Clone().Freeze()
		rowsM := collectRows(f, gm)
		rowsF := collectRows(f, gf)
		if len(rowsM) != len(rowsF) {
			t.Fatalf("case %d (%s): %d rows map vs %d frozen", used, sparql.Format(p), len(rowsM), len(rowsF))
		}
		for i := range rowsM {
			if !slices.Equal(rowsM[i], rowsF[i]) {
				t.Fatalf("case %d (%s): row %d: %v map vs %v frozen",
					used, sparql.Format(p), i, rowsM[i], rowsF[i])
			}
		}
		// The one-shot enumeration agrees too (same sets, same order).
		sm := core.EnumerateTopDownForestID(f, gm)
		sf := core.EnumerateTopDownForestID(f, gf)
		if sm.Len() != sf.Len() {
			t.Fatalf("case %d: EnumerateTopDownForestID %d vs %d", used, sm.Len(), sf.Len())
		}
		for i := 0; i < sm.Len(); i++ {
			if !slices.Equal(sm.Row(i), sf.Row(i)) {
				t.Fatalf("case %d: enumeration row %d differs", used, i)
			}
		}
	}
	if used < 60 {
		t.Fatalf("generator starved: only %d well-designed patterns in %d tries", used, tried)
	}
}

// Decision procedures agree on frozen graphs: wdEVAL through the
// naive and pebble algorithms sees the same graph either way.
func TestFrozenDecisionAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tried, used := 0, 0
	for used < 40 && tried < 3000 {
		tried++
		p := randPattern(rng, 2)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		gm := randData(rng)
		gf := gm.Clone().Freeze()
		probes := append(sparql.Eval(p, gm).Slice(),
			rdf.Mapping{"x": "a"}, rdf.Mapping{"x": "a", "y": "b"}, rdf.Mapping{})
		for _, mu := range probes {
			if core.Eval(core.AlgNaive, 0, f, gm, mu) != core.Eval(core.AlgNaive, 0, f, gf, mu) {
				t.Fatalf("case %d: Eval(naive) disagrees on %v", used, mu)
			}
			if core.Eval(core.AlgPebble, 1, f, gm, mu) != core.Eval(core.AlgPebble, 1, f, gf, mu) {
				t.Fatalf("case %d: Eval(pebble) disagrees on %v", used, mu)
			}
		}
	}
}

package hom_test

import (
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
)

// Experiment A1: the production row search (fail-first pattern
// selection) and the static-order ablation refute K_k on the
// clique-free Turán graph T(15, k−1) alike, and the row search counts
// the nodes it expands.
func TestFailFirstAgreesWithStaticOrderOnTuran(t *testing.T) {
	for k := 3; k <= 5; k++ {
		pats := []rdf.Triple(hom.NewTGraph(gen.KkTriples(k)...))
		g := gen.Turan(15, k-1, "r")
		var st hom.SearchStats
		layout := rdf.NewSlotLayout()
		s := hom.CompileRowProgram(pats, g, layout).NewSearcher()
		s.Tune(hom.ModeHeuristic, 0, &st)
		failFirst := !s.Run(layout.NewRow(), func() bool { return false })
		if static := hom.ExistsStaticOrder(pats, g); failFirst || static {
			t.Fatalf("K_%d on T(15, %d): fail-first %v, static order %v, want false", k, k-1, failFirst, static)
		}
		if st.Nodes <= 0 {
			t.Fatalf("K_%d: row search counted %d nodes", k, st.Nodes)
		}
	}
}

package bench

import (
	"fmt"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/pebble"
	"wdsparql/internal/rdf"
)

// Ablation experiments: quantify the design choices called out in
// DESIGN.md — the fail-first join ordering of the homomorphism solver,
// the unary candidate pruning of the pebble closure, and the exact
// subset dynamic program for treewidth versus the heuristics alone.

// A1FailFirst compares the production homomorphism search (the row
// search behind hom.Exists, fail-first pattern selection) against the
// static-order ablation on the Turán refutation workload, with the
// search nodes the row search expanded; agree gates the two verdicts.
func A1FailFirst(cliqueKs []int, n int) *Table {
	t := &Table{
		ID:     "A1",
		Title:  fmt.Sprintf("hom solver: fail-first vs static order (Turán refutation, n=%d)", n),
		Claim:  "fail-first ordering dominates on structured instances",
		Header: []string{"clique k", "fail-first", "static order", "search nodes", "agree"},
	}
	for _, k := range cliqueKs {
		pat := []rdf.Triple(hom.NewTGraph(gen.KkTriples(k)...))
		g := gen.Turan(n, k-1, "r")
		var ff, so bool
		var stats hom.SearchStats
		dFF := timed(func() {
			layout := rdf.NewSlotLayout()
			s := hom.CompileRowProgram(pat, g, layout).NewSearcher()
			s.Tune(hom.ModeHeuristic, 0, &stats)
			ff = !s.Run(layout.NewRow(), func() bool { return false })
		})
		dSO := timed(func() { so = hom.ExistsStaticOrder(pat, g) })
		t.AddRow(fmt.Sprint(k), ms(dFF), ms(dSO), fmt.Sprint(stats.Nodes), fmt.Sprint(ff == so))
	}
	return t
}

// A2UnaryPruning compares the pebble closure with and without unary
// candidate pruning on the E3 extension test.
func A2UnaryPruning(ks []int, n int) *Table {
	t := &Table{
		ID:     "A2",
		Title:  fmt.Sprintf("pebble closure: unary pruning on/off (F_k child test, n=%d)", n),
		Claim:  "identical verdicts; pruning shrinks the enumerated family",
		Header: []string{"k", "pruned", "unpruned", "agree"},
	}
	for _, k := range ks {
		f := gen.Fk(k)
		g := gen.FkData(k, n, false, false)
		mu := gen.FkMu()
		// Reconstruct the E3 extension test on T1's clique child.
		s, ok := core.FindMatchedSubtree(f[0], g, mu)
		if !ok {
			t.AddRow(fmt.Sprint(k), "-", "-", "no witness")
			continue
		}
		child := s.Children()[0]
		gt := hom.NewGTGraph(s.Pattern().Union(child.Pattern), s.Vars())
		var a, b bool
		dA := timed(func() { a = pebble.Decide(2, gt, mu, g) })
		dB := timed(func() { b = pebble.DecideNoUnaryPruning(2, gt, mu, g) })
		t.AddRow(fmt.Sprint(k), ms(dA), ms(dB), fmt.Sprint(a == b))
	}
	return t
}

// A3ExactTreewidth compares the exact subset DP against the heuristic
// upper bound on the Gaifman graphs of the Example 3 family, reporting
// where the heuristic is already optimal.
func A3ExactTreewidth(kMax int) *Table {
	t := &Table{
		ID:     "A3",
		Title:  "treewidth: exact subset DP vs elimination heuristics",
		Claim:  "heuristics are optimal on cliques/grids; DP certifies it",
		Header: []string{"graph", "exact", "heuristic ub", "lower bound", "exact time", "heuristic time"},
	}
	hosts := []struct {
		name string
		g    *graphalg.UGraph
	}{}
	for k := 3; k <= kMax; k++ {
		hosts = append(hosts, struct {
			name string
			g    *graphalg.UGraph
		}{fmt.Sprintf("K%d", k), graphalg.Clique(k)})
	}
	hosts = append(hosts,
		struct {
			name string
			g    *graphalg.UGraph
		}{"grid4x4", graphalg.Grid(4, 4)},
		struct {
			name string
			g    *graphalg.UGraph
		}{"grid3x6", graphalg.Grid(3, 6)},
	)
	for _, h := range hosts {
		var exact, ub, lb int
		dExact := timed(func() { exact, _ = graphalg.Treewidth(h.g) })
		dHeu := timed(func() {
			ub = graphalg.TreewidthUpperBound(h.g)
			lb = graphalg.TreewidthLowerBound(h.g)
		})
		t.AddRow(h.name, fmt.Sprint(exact), fmt.Sprint(ub), fmt.Sprint(lb), ms(dExact), ms(dHeu))
	}
	return t
}

// AblationExperiments returns the ablation suite lazily.
func AblationExperiments() []Experiment {
	return []Experiment{
		{"A1", func() *Table { return A1FailFirst([]int{3, 4, 5}, 15) }},
		{"A2", func() *Table { return A2UnaryPruning([]int{3, 4, 5}, 24) }},
		{"A3", func() *Table { return A3ExactTreewidth(7) }},
	}
}

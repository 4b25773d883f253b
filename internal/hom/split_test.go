package hom

import (
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/rdf"
)

// SplitTop/RunOn is the top-level partitioning seam of the compiled
// search: running RunOn over SplitTop's candidates in order must
// reproduce Run's stream exactly — same rows, same order — for random
// programs over random graphs, with and without pre-bound rows, on
// both the map and the frozen backend. This is what lets the parallel
// enumeration split root work per candidate without observable effect.

func collectRun(prog *RowProgram, base rdf.Row) []rdf.Row {
	var out []rdf.Row
	row := base.Clone()
	prog.NewSearcher().Run(row, func() bool {
		out = append(out, row.Clone())
		return true
	})
	return out
}

func collectSplit(t *testing.T, prog *RowProgram, base rdf.Row) ([]rdf.Row, bool) {
	t.Helper()
	s := prog.NewSearcher()
	row := base.Clone()
	cands, ok := s.SplitTop(row)
	if !ok {
		return nil, false
	}
	var out []rdf.Row
	for _, c := range cands {
		s.RunOn(row, c, func() bool {
			out = append(out, row.Clone())
			return true
		})
		if !slices.Equal(row, base) {
			t.Fatalf("RunOn(%v) did not restore the row: %v vs %v", c, row, base)
		}
	}
	return out, true
}

func TestSplitTopPartitionsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	split, fellBack := 0, 0
	for c := 0; c < 300; c++ {
		g := randRowGraph(rng)
		if c%2 == 1 {
			g.Freeze()
		}
		pats := randRowPats(rng)
		layout := rdf.NewSlotLayout()
		prog := CompileRowProgram(pats, g, layout)
		base := layout.NewRow()
		if rng.Intn(2) == 0 {
			// Pre-bind one slot from some solution, exercising the
			// "extends µ" side condition through the split.
			if full := collectRun(prog, layout.NewRow()); len(full) > 0 {
				for s, v := range full[0] {
					if v != rdf.Unbound {
						base[s] = v
						break
					}
				}
			}
		}
		want := collectRun(prog, base)
		got, ok := collectSplit(t, prog, base)
		if !ok {
			fellBack++
			continue
		}
		split++
		if len(got) != len(want) {
			t.Fatalf("case %d (%v): split stream %d rows, Run %d", c, pats, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("case %d: row %d differs: %v split vs %v Run", c, i, got[i], want[i])
			}
		}
	}
	if split == 0 {
		t.Fatal("no case exercised the split path")
	}
}

// An empty program has no top-level branch point: SplitTop must demand
// the Run fallback (which yields exactly the empty extension), and a
// program with an absent constant must split into zero work items.
func TestSplitTopDegenerate(t *testing.T) {
	g := rdf.GraphOf(rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")))
	layout := rdf.NewSlotLayout()
	empty := CompileRowProgram(nil, g, layout)
	if _, ok := empty.NewSearcher().SplitTop(layout.NewRow()); ok {
		t.Fatal("empty program must not split")
	}
	absent := CompileRowProgram([]rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("nope"), rdf.Var("y"))}, g, layout)
	cands, ok := absent.NewSearcher().SplitTop(layout.NewRow())
	if !ok || len(cands) != 0 {
		t.Fatalf("absent-constant program must split into zero items, got %v ok=%v", cands, ok)
	}
}

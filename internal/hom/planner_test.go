package hom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/rdf"
)

// collectMode compiles-and-runs nothing itself: it drives an existing
// planned program through one search mode and returns the emitted rows.
func collectMode(p *RowProgram, layout *rdf.SlotLayout, mode SearchMode, stats *SearchStats) []rdf.Row {
	s := p.NewSearcher()
	s.Tune(mode, 0, stats)
	row := layout.NewRow()
	var out []rdf.Row
	s.Run(row, func() bool {
		out = append(out, row.Clone())
		return true
	})
	return out
}

func sortedRows(rows []rdf.Row) []rdf.Row {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b rdf.Row) int {
		return slices.Compare(a, b)
	})
	return out
}

// The mode contract on random instances: ModePlanned reproduces the
// heuristic stream byte for byte with nodes visited ≤, and ModeStrict
// — free to reorder — emits the same row multiset.
func TestSearchModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for c := 0; c < 300; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		layout := rdf.NewSlotLayout()
		prog := CompileRowProgramPlanned(pats, g, layout, nil)

		var stH, stP SearchStats
		heur := collectMode(prog, layout, ModeHeuristic, &stH)
		planned := collectMode(prog, layout, ModePlanned, &stP)
		if len(heur) != len(planned) {
			t.Fatalf("case %d: %v: heuristic %d rows, planned %d", c, pats, len(heur), len(planned))
		}
		for i := range heur {
			if !slices.Equal(heur[i], planned[i]) {
				t.Fatalf("case %d: %v: streams diverge at row %d: %v vs %v",
					c, pats, i, heur[i], planned[i])
			}
		}
		if stP.Nodes > stH.Nodes {
			t.Fatalf("case %d: %v: planned visited %d nodes, heuristic %d — complete dead detection cannot expand more",
				c, pats, stP.Nodes, stH.Nodes)
		}

		strict := sortedRows(collectMode(prog, layout, ModeStrict, nil))
		want := sortedRows(heur)
		if len(strict) != len(want) {
			t.Fatalf("case %d: %v: strict %d rows, want %d", c, pats, len(strict), len(want))
		}
		for i := range want {
			if !slices.Equal(strict[i], want[i]) {
				t.Fatalf("case %d: %v: strict multiset differs at %d", c, pats, i)
			}
		}
	}
}

// The memo must be invisible: disabling it changes probe counts, never
// the stream.
func TestCountMemoInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for c := 0; c < 100; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		layout := rdf.NewSlotLayout()
		prog := CompileRowProgramPlanned(pats, g, layout, nil)
		for _, mode := range []SearchMode{ModeHeuristic, ModePlanned, ModeStrict} {
			var stMemo, stRaw SearchStats
			withMemo := collectMode(prog, layout, mode, &stMemo)

			s := prog.NewSearcher()
			s.Tune(mode, 0, &stRaw)
			s.noMemo = true
			row := layout.NewRow()
			var raw []rdf.Row
			s.Run(row, func() bool {
				raw = append(raw, row.Clone())
				return true
			})

			if len(withMemo) != len(raw) {
				t.Fatalf("case %d mode %d: memo %d rows, raw %d", c, mode, len(withMemo), len(raw))
			}
			for i := range raw {
				if !slices.Equal(withMemo[i], raw[i]) {
					t.Fatalf("case %d mode %d: memo changed the stream at row %d", c, mode, i)
				}
			}
			if stMemo.CountProbes > stRaw.CountProbes {
				t.Fatalf("case %d mode %d: memo issued more probes (%d) than no-memo (%d)",
					c, mode, stMemo.CountProbes, stRaw.CountProbes)
			}
		}
	}
}

// Strict mode's adaptive escape hatch: a skewed posting list (one
// subject carrying most of predicates q and t) breaks the
// uniform-independence estimate, and the node whose actual count
// exceeds slack × estimate must fall back to the full re-score. That
// node is the one below the root, where q and t both remain: a node's
// last pattern is walked without a probe, so the hatch cannot fire
// there.
func TestStrictEscapeHatch(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("x", "r", "s0")
	// Under each of q and t, 51 triples from s0 plus 50 spread
	// singletons: distinct subjects 51, so the subject-bound estimate is
	// 101/51 ≈ 2 while the actual count at s0 is 51 > DefaultSlack × 2.
	for _, p := range []string{"q", "t"} {
		for i := 0; i < 51; i++ {
			g.AddTriple("s0", p, fmt.Sprintf("o%d", i))
		}
		for i := 1; i <= 50; i++ {
			g.AddTriple(fmt.Sprintf("s%d", i), p, "o0")
		}
	}
	pats := []rdf.Triple{
		rdf.T(rdf.Var("a"), rdf.IRI("r"), rdf.Var("b")),
		rdf.T(rdf.Var("b"), rdf.IRI("q"), rdf.Var("c")),
		rdf.T(rdf.Var("b"), rdf.IRI("t"), rdf.Var("d")),
	}
	layout := rdf.NewSlotLayout()
	prog := CompileRowProgramPlanned(pats, g, layout, nil)
	if prog.Plan() == nil || prog.Plan().Volatile() {
		t.Fatal("star program must carry a non-volatile plan")
	}
	var st SearchStats
	rows := collectMode(prog, layout, ModeStrict, &st)
	if len(rows) != 51*51 {
		t.Fatalf("got %d rows, want %d", len(rows), 51*51)
	}
	if st.Rescored != 1 {
		t.Fatalf("strict-mode re-scores = %d, want 1 (at s0, with q and t left)", st.Rescored)
	}
}

// A node's last pattern is the choice in every mode and is walked
// without a count probe: a one-pattern program expands its one node
// with no probe in all three modes, and a pattern with no matches —
// constants known to the graph, no triple joining them — yields
// nothing.
func TestLastPatternWalkedWithoutProbe(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddTriple(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	g.AddTriple("x", "q", "o0")
	for _, tc := range []struct {
		name string
		pat  rdf.Triple
		rows int
	}{
		{"matches", rdf.T(rdf.Var("a"), rdf.IRI("p"), rdf.Var("b")), 5},
		{"zero-count", rdf.T(rdf.Var("a"), rdf.IRI("q"), rdf.IRI("o1")), 0},
	} {
		for _, mode := range []SearchMode{ModeHeuristic, ModePlanned, ModeStrict} {
			layout := rdf.NewSlotLayout()
			prog := CompileRowProgramPlanned([]rdf.Triple{tc.pat}, g, layout, nil)
			var st SearchStats
			rows := collectMode(prog, layout, mode, &st)
			if len(rows) != tc.rows || st.Nodes != 1 || st.CountProbes != 0 || st.MemoHits != 0 {
				t.Errorf("%s, mode %d: %d rows, %d nodes, %d probes, %d memo hits; want %d rows, 1 node, no probe",
					tc.name, mode, len(rows), st.Nodes, st.CountProbes, st.MemoHits, tc.rows)
			}
		}
	}
}

// Volatile (cyclic) plans keep the full re-score in strict mode, which
// makes the strict stream byte-identical to the heuristic one — the
// argmin choice is the same on every live node.
func TestStrictVolatileFallsBackToScored(t *testing.T) {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		g.AddTriple(fmt.Sprintf("v%d", rng.Intn(20)), "p", fmt.Sprintf("v%d", rng.Intn(20)))
	}
	pats := []rdf.Triple{
		rdf.T(rdf.Var("a"), rdf.IRI("p"), rdf.Var("b")),
		rdf.T(rdf.Var("b"), rdf.IRI("p"), rdf.Var("c")),
		rdf.T(rdf.Var("c"), rdf.IRI("p"), rdf.Var("a")),
	}
	layout := rdf.NewSlotLayout()
	prog := CompileRowProgramPlanned(pats, g, layout, nil)
	if prog.Plan() == nil || !prog.Plan().Volatile() {
		t.Fatal("triangle program must carry a volatile plan")
	}
	heur := collectMode(prog, layout, ModeHeuristic, nil)
	strict := collectMode(prog, layout, ModeStrict, nil)
	if len(heur) != len(strict) {
		t.Fatalf("strict %d rows, heuristic %d", len(strict), len(heur))
	}
	for i := range heur {
		if !slices.Equal(heur[i], strict[i]) {
			t.Fatalf("volatile strict stream diverges at row %d", i)
		}
	}
}

// BenchmarkPickPattern isolates the selection loop's per-pattern count
// memo on the shape that exposes the original hot-loop waste: a star
// query, where the last star arm's substitution is fixed the moment
// the shared subject binds, yet the pre-memo scan re-probed its count
// at every node of the sibling arm's enumeration. Runs on the map
// backend (hash-lookup counts) and the frozen backend (binary-search
// counts, where each skipped re-probe pays more).
func BenchmarkPickPattern(b *testing.B) {
	mg := rdf.NewGraph()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2048; i++ {
		for _, p := range []string{"p0", "p1", "p2"} {
			mg.AddTriple(fmt.Sprintf("v%d", rng.Intn(256)), p, fmt.Sprintf("w%d", rng.Intn(256)))
		}
	}
	pats := []rdf.Triple{
		rdf.T(rdf.Var("a"), rdf.IRI("p0"), rdf.Var("b")),
		rdf.T(rdf.Var("a"), rdf.IRI("p1"), rdf.Var("c")),
		rdf.T(rdf.Var("a"), rdf.IRI("p2"), rdf.Var("d")),
	}
	for _, backend := range []struct {
		name string
		g    *rdf.Graph
	}{{"map", mg}, {"frozen", mg.Clone().Freeze()}} {
		layout := rdf.NewSlotLayout()
		prog := CompileRowProgramPlanned(pats, backend.g, layout, nil)
		for _, cfg := range []struct {
			name   string
			mode   SearchMode
			noMemo bool
		}{
			{"heuristic/memo", ModeHeuristic, false},
			{"heuristic/nomemo", ModeHeuristic, true},
			{"strict/memo", ModeStrict, false},
			{"strict/nomemo", ModeStrict, true},
		} {
			b.Run(backend.name+"/"+cfg.name, func(b *testing.B) {
				row := layout.NewRow()
				for i := 0; i < b.N; i++ {
					s := prog.NewSearcher()
					s.Tune(cfg.mode, 0, nil)
					s.noMemo = cfg.noMemo
					n := 0
					s.Run(row, func() bool { n++; return true })
				}
			})
		}
	}
}

package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"wdsparql/internal/core"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// E16: the query-planner ablation. For each workload shape and each
// storage backend the experiment runs the two execution tiers the
// engine tunes differently — the ordered row stream (planner off =
// ModeHeuristic, on = ModePlanned) and the order-free count (off =
// ModeHeuristic, on = ModeStrict plan-following) — and reports wall
// time, search nodes visited and selection count probes side by side.
// The agree column is the determinism gate: planner-on streams must be
// byte-identical to planner-off (and to the unsealed reference),
// and strict-mode counts must equal the stream cardinality. wdbench
// exits non-zero when any agree cell is false.

// e16ChainTree is a single-node 3-pattern chain: the shape where join
// order matters most inside one BGP.
func e16ChainTree() *ptree.Tree {
	v, i := rdf.Var, rdf.IRI
	return ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{
		rdf.T(v("a"), i("p0"), v("b")),
		rdf.T(v("b"), i("p1"), v("c")),
		rdf.T(v("c"), i("p2"), v("d")),
	}})
}

// e16CycleTree is a directed triangle over one predicate: sparse data
// makes most branches die late, exposing the heuristic's count-1 early
// break (it can miss a remaining pattern that is already at zero).
func e16CycleTree() *ptree.Tree {
	v, i := rdf.Var, rdf.IRI
	return ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{
		rdf.T(v("a"), i("p0"), v("b")),
		rdf.T(v("b"), i("p0"), v("c")),
		rdf.T(v("c"), i("p0"), v("a")),
	}})
}

// e16CycleData draws n edges over one predicate with sources uniform
// over n nodes but targets concentrated in the first quarter: three in
// four nodes have no incoming edge, so most triangle walks are doomed
// the moment ?a is fixed — the workload that separates complete dead
// detection from the heuristic's count-1 early break.
func e16CycleData(n int) *rdf.Graph {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(7))
	hub := max(1, n/4)
	for i := 0; i < n; i++ {
		g.AddTriple(fmt.Sprintf("v%d", rng.Intn(n)), "p0", fmt.Sprintf("v%d", rng.Intn(hub)))
	}
	return g
}

// e16Timed reports the per-run duration as the best of four timed
// batches of six runs each: the measured executions are around a
// millisecond, where single shots are scheduler- and GC-noise
// dominated, so batching amortises the jitter and best-of picks the
// interference-free estimate. The GC flush levels collector debt left
// by the preceding measurement.
func e16Timed(f func()) time.Duration {
	const reps = 6
	runtime.GC()
	var best time.Duration
	for i := 0; i < 4; i++ {
		d := timed(func() {
			for j := 0; j < reps; j++ {
				f()
			}
		}) / reps
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// e16Collect materialises the stream of fp under one mode.
func e16Collect(fp *core.ForestProgram, mode hom.SearchMode) []rdf.Row {
	var out []rdf.Row
	fp.Tuned(mode, 0, nil).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

func e16StreamsEqual(a, b []rdf.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// E16Planner measures the compile-time planner against the per-node
// heuristic on three workload shapes (the EnumTree wdPT, a single-node
// chain, a sparse directed triangle) across the unsealed graph (every
// triple in the write overlay) and its frozen clone.
func E16Planner(n int) *Table {
	t := &Table{
		ID:    "E16",
		Title: fmt.Sprintf("query planner ablation: planner off vs on (n=%d)", n),
		Claim: "plan-following count cuts probes/node to O(1); planned streams stay byte-identical with nodes ≤ heuristic",
		Header: []string{"shape", "backend", "exec", "rows", "t(off)", "nodes(off)",
			"t(on)", "nodes(on)", "probes(off/on)", "agree"},
	}
	shapes := []struct {
		name string
		f    ptree.Forest
		g    *rdf.Graph
	}{
		{"tree", ptree.Forest{EnumTree()}, EnumData(n)},
		{"chain", ptree.Forest{e16ChainTree()}, EnumData(n)},
		{"cycle", ptree.Forest{e16CycleTree()}, e16CycleData(n)},
	}
	for _, sh := range shapes {
		backends := []struct {
			name string
			g    *rdf.Graph
		}{
			{"unsealed", sh.g},
			{"frozen", sh.g.Clone().Freeze()},
		}
		var unsealedRef []rdf.Row
		for _, b := range backends {
			fp := core.CompileForest(sh.f, b.g)
			ref := e16Collect(fp, hom.ModeHeuristic)
			if unsealedRef == nil {
				unsealedRef = ref
			}
			planned := e16Collect(fp, hom.ModePlanned)
			streamsOK := e16StreamsEqual(ref, planned) && e16StreamsEqual(ref, unsealedRef)

			// One counter pass plus a best-of-five timing pass (stats
			// attachment off while timing, so counters stay per-run).
			run := func(mode hom.SearchMode) (rows int, st hom.SearchStats, d time.Duration) {
				fp.Tuned(mode, 0, &st).Rows(func(rdf.Row) bool { rows++; return true })
				d = e16Timed(func() {
					fp.Tuned(mode, 0, nil).Rows(func(rdf.Row) bool { return true })
				})
				return rows, st, d
			}

			// Ordered stream: heuristic vs planned.
			nOff, stOff, dOff := run(hom.ModeHeuristic)
			nOn, stOn, dOn := run(hom.ModePlanned)
			t.AddRow(sh.name, b.name, "enum", fmt.Sprint(len(ref)),
				ms(dOff), fmt.Sprint(stOff.Nodes), ms(dOn), fmt.Sprint(stOn.Nodes),
				fmt.Sprintf("%d/%d", stOff.CountProbes, stOn.CountProbes),
				fmt.Sprint(streamsOK && nOff == len(ref) && nOn == len(ref)))

			// Order-free count: heuristic vs strict plan-following.
			cOff, stOffC, dOffC := run(hom.ModeHeuristic)
			cOn, stOnC, dOnC := run(hom.ModeStrict)
			t.AddRow(sh.name, b.name, "count", fmt.Sprint(cOn),
				ms(dOffC), fmt.Sprint(stOffC.Nodes), ms(dOnC), fmt.Sprint(stOnC.Nodes),
				fmt.Sprintf("%d/%d", stOffC.CountProbes, stOnC.CountProbes),
				fmt.Sprint(cOff == len(ref) && cOn == len(ref)))
		}
	}
	return t
}

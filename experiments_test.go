package wdsparql_test

// The workloads of the planner (E16) and filter-pushdown (E17)
// ablations, and the tier-1 checks of both: the search modes and filter
// placements the engine chooses between must emit the same row stream,
// byte for byte, while the chosen one expands no more search nodes.
// bench_test.go times the same workloads. DESIGN.md §10 maps every
// experiment to the test that checks it and the benchmark that times it.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// enumTree is the enumeration workload of E16 and E17: a wdPT in the
// AND/OPT-dominated shape of real SPARQL logs (Han et al.) — a root
// edge with one optional two-step chain and one optional attribute
// arm, so per-root solutions combine by cross product and solutions
// have mixed domains (unbound slots).
//
//	      {?x p0 ?y}
//	      /        \
//	{?y p1 ?z}   {?y p3 ?w}
//	     |
//	{?z p2 ?u}
func enumTree() *ptree.Tree {
	v, i := rdf.Var, rdf.IRI
	return ptree.FromSpec(ptree.Spec{
		Pattern: []rdf.Triple{rdf.T(v("x"), i("p0"), v("y"))},
		Children: []ptree.Spec{
			{
				Pattern: []rdf.Triple{rdf.T(v("y"), i("p1"), v("z"))},
				Children: []ptree.Spec{
					{Pattern: []rdf.Triple{rdf.T(v("z"), i("p2"), v("u"))}},
				},
			},
			{Pattern: []rdf.Triple{rdf.T(v("y"), i("p3"), v("w"))}},
		},
	})
}

// enumPatternText is enumTree written as a graph pattern (its wdpf is
// exactly enumTree).
const enumPatternText = `(((?x p0 ?y) OPT ((?y p1 ?z) OPT (?z p2 ?u))) OPT (?y p3 ?w))`

// enumData builds the enumeration graph: an Erdős–Rényi graph over 4
// predicates.
func enumData(n int) *rdf.Graph {
	return gen.Random(n, 4*n, 4, 7)
}

// chainTree is a single-node 3-pattern chain: the shape where join
// order matters most inside one BGP.
func chainTree() *ptree.Tree {
	v, i := rdf.Var, rdf.IRI
	return ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{
		rdf.T(v("a"), i("p0"), v("b")),
		rdf.T(v("b"), i("p1"), v("c")),
		rdf.T(v("c"), i("p2"), v("d")),
	}})
}

// cycleTree is a directed triangle over one predicate: sparse data
// makes most branches die late, exposing the heuristic's count-1 early
// break (it can miss a remaining pattern that is already at zero).
func cycleTree() *ptree.Tree {
	v, i := rdf.Var, rdf.IRI
	return ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{
		rdf.T(v("a"), i("p0"), v("b")),
		rdf.T(v("b"), i("p0"), v("c")),
		rdf.T(v("c"), i("p0"), v("a")),
	}})
}

// cycleData draws n edges over one predicate with sources uniform over
// n nodes but targets concentrated in the first quarter: three in four
// nodes have no incoming edge, so most triangle walks are doomed the
// moment ?a is fixed — the workload that separates complete dead
// detection from the heuristic's count-1 early break.
func cycleData(n int) *rdf.Graph {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(7))
	hub := max(1, n/4)
	for i := 0; i < n; i++ {
		g.AddTriple(fmt.Sprintf("v%d", rng.Intn(n)), "p0", fmt.Sprintf("v%d", rng.Intn(hub)))
	}
	return g
}

// plannerShape is one E16 workload: a forest and its unsealed graph.
type plannerShape struct {
	name string
	f    ptree.Forest
	g    *rdf.Graph
}

// plannerShapes returns the E16 workloads over n-triple graphs.
func plannerShapes(n int) []plannerShape {
	return []plannerShape{
		{"tree", ptree.Forest{enumTree()}, enumData(n)},
		{"chain", ptree.Forest{chainTree()}, enumData(n)},
		{"cycle", ptree.Forest{cycleTree()}, cycleData(n)},
	}
}

// backend is one storage layout of a workload graph.
type backend struct {
	name string
	g    *rdf.Graph
}

// backends returns g unsealed (every triple in the write overlay) and
// a frozen clone.
func backends(g *rdf.Graph) []backend {
	return []backend{{"unsealed", g}, {"frozen", g.Clone().Freeze()}}
}

// e8Data builds the batched-evaluation workload: a Turán graph
// T(n, k−1) over predicate r (adversarial for the K_k refutation, as
// in E3) plus a p-cycle over its vertices. Every p-edge yields one
// candidate mapping {?x ↦ nᵢ, ?y ↦ nᵢ₊₁} for the F_k root pattern, so
// the batch size scales with n.
func e8Data(k, n int) *rdf.Graph {
	g := gen.Turan(n, k-1, "r")
	for i := 0; i < n; i++ {
		g.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", (i+1)%n))
	}
	return g
}

// e17Queries is the E17 workload mix: a selective equality filter on
// an optional chain (the pushdown's best case), a var-var disequality
// inside one BGP, a BOUND guard that can only run at subtree emit
// (deferred either way — the no-win control), and a projected DISTINCT
// over the same chain. hub is a node that occurs as a p0 object, so the
// equality filter selects a real, non-empty slice of the stream.
func e17Queries(hub string) []struct{ name, text string } {
	return []struct{ name, text string }{
		{"eq-push", `(` + enumPatternText + ` FILTER ?y = ` + hub + `)`},
		{"ne-varvar", `(((?x p0 ?y) AND (?y p1 ?z)) FILTER ?x != ?z)`},
		{"bound-defer", `((((?x p0 ?y) OPT (?y p1 ?z)) FILTER BOUND(?z)) FILTER ?x != n0)`},
		{"sel-distinct", `SELECT DISTINCT ?y WHERE (` + enumPatternText + ` FILTER NOT ?y = ` + hub + `)`},
	}
}

// e17Hub returns the object of the first p0 triple of g.
func e17Hub(g *rdf.Graph) string {
	for _, tr := range g.Triples() {
		if tr.P.Value == "p0" {
			return tr.O.Value
		}
	}
	return "n0"
}

// e17Compile mirrors the engine's prepare path on the internal API:
// unwrap the optional SELECT, translate to a wdPF, compile with the
// requested filter placement (noPush defers every conjunct to the
// subtree emit), apply the projection view.
func e17Compile(tb testing.TB, q sparql.Pattern, g *rdf.Graph, noPush bool) *core.ForestProgram {
	tb.Helper()
	inner := q
	sel, isSel := q.(sparql.Select)
	if isSel {
		inner = sel.Where
	}
	f, err := ptree.WDPF(inner)
	if err != nil {
		tb.Fatal(err)
	}
	fp := core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: noPush})
	if isSel {
		proj := make([]string, len(sel.Vars))
		for i, v := range sel.Vars {
			proj[i] = v.Value
		}
		fp = fp.Project(proj, sel.Distinct)
	}
	return fp
}

// collectRows materialises fp's stream under one mode and returns it
// with the search counters of that one pass.
func collectRows(fp *core.ForestProgram, mode hom.SearchMode) ([]rdf.Row, hom.SearchStats) {
	var out []rdf.Row
	var st hom.SearchStats
	fp.Tuned(mode, 0, &st).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out, st
}

// firstRowDiff returns the index of the first row where a and b differ,
// or -1 when the streams are identical.
func firstRowDiff(a, b []rdf.Row) int {
	for i := range min(len(a), len(b)) {
		if !slices.Equal(a[i], b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// E16: on every shape and backend, the planned stream (the engine's
// ordered mode) is byte-identical to the heuristic stream and to the
// unsealed graph's, expands no more search nodes, and the strict
// plan-following count (the engine's Count) equals the stream length.
func TestE16PlannerModesAgree(t *testing.T) {
	for _, sh := range plannerShapes(2048) {
		var unsealed []rdf.Row
		for _, b := range backends(sh.g) {
			fp := core.CompileForest(sh.f, b.g)
			heur, stHeur := collectRows(fp, hom.ModeHeuristic)
			planned, stPlanned := collectRows(fp, hom.ModePlanned)
			if unsealed == nil {
				unsealed = heur
			}
			if len(heur) == 0 {
				t.Fatalf("%s/%s: empty stream", sh.name, b.name)
			}
			if i := firstRowDiff(planned, heur); i >= 0 {
				t.Fatalf("%s/%s: planned stream (%d rows) diverges from heuristic (%d) at row %d",
					sh.name, b.name, len(planned), len(heur), i)
			}
			if i := firstRowDiff(heur, unsealed); i >= 0 {
				t.Fatalf("%s/%s: stream (%d rows) diverges from the unsealed graph's (%d) at row %d",
					sh.name, b.name, len(heur), len(unsealed), i)
			}
			if stPlanned.Nodes > stHeur.Nodes {
				t.Fatalf("%s/%s: nodes(planned) = %d > nodes(heuristic) = %d",
					sh.name, b.name, stPlanned.Nodes, stHeur.Nodes)
			}
			n := 0
			fp.Tuned(hom.ModeStrict, 0, nil).Rows(func(rdf.Row) bool { n++; return true })
			if n != len(heur) {
				t.Fatalf("%s/%s: strict count = %d, stream length %d", sh.name, b.name, n, len(heur))
			}
		}
	}
}

// E17: for every query shape, bind-time filter pushdown (the default)
// streams exactly what all-deferred evaluation streams, expands no
// more search nodes, and the deduplicated stream has the size of the
// compositional reference.
func TestE17PushdownAgrees(t *testing.T) {
	g := enumData(2048)
	for _, w := range e17Queries(e17Hub(g)) {
		q := sparql.MustParse(w.text)
		off, stOff := collectRows(e17Compile(t, q, g, true), hom.ModeHeuristic)
		fp := e17Compile(t, q, g, false)
		on, stOn := collectRows(fp, hom.ModeHeuristic)
		if len(on) == 0 {
			t.Fatalf("%s: empty stream", w.name)
		}
		if i := firstRowDiff(on, off); i >= 0 {
			t.Fatalf("%s: pushdown stream (%d rows) diverges from deferred (%d) at row %d",
				w.name, len(on), len(off), i)
		}
		if stOn.Nodes > stOff.Nodes {
			t.Fatalf("%s: nodes(on) = %d > nodes(off) = %d", w.name, stOn.Nodes, stOff.Nodes)
		}
		set := rdf.NewIDMappingSet(fp.Layout())
		for _, r := range on {
			set.Add(r)
		}
		if want := sparql.EvalID(q, g).Len(); set.Len() != want {
			t.Fatalf("%s: %d distinct rows, compositional reference %d", w.name, set.Len(), want)
		}
	}
}

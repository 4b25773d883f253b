package bench

import (
	"fmt"
	"math/rand"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/reduction"
)

// E1 reproduces Example 3 / Figure 1: (S, X) is a core with
// ctw = k − 1, while (S', X) has tw = k − 1 but ctw = 1.
func E1CoreTreewidth(kMax int) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Core treewidth of the Figure 1 generalised t-graphs",
		Claim:  "ctw(S,X)=k-1; tw(S',X)=k-1 but ctw(S',X)=1 (Example 3)",
		Header: []string{"k", "ctw(S,X)", "tw(S',X)", "ctw(S',X)", "S core?", "time"},
	}
	for k := 2; k <= kMax; k++ {
		s := gen.ExampleS(k)
		sp := gen.ExampleSPrime(k)
		var ctwS, twSp, ctwSp int
		var isCore bool
		d := timed(func() {
			ctwS = core.CTW(s)
			twSp = core.TW(sp)
			ctwSp = core.CTW(sp)
			isCore = hom.IsCore(s)
		})
		t.AddRow(fmt.Sprint(k), fmt.Sprint(ctwS), fmt.Sprint(twSp), fmt.Sprint(ctwSp),
			fmt.Sprint(isCore), ms(d))
	}
	return t
}

// E2 reproduces Examples 4–5 / Figures 2–3: dw(F_k) = 1 for every k,
// local width = k − 1 (so F_k is not locally tractable), and the GtG
// set of the root subtree has exactly two elements.
func E2DominationWidth(kMax int) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Domination width of the wdPF F_k (Figure 2)",
		Claim:  "dw(F_k)=1 although local width = k-1 (Examples 4-5)",
		Header: []string{"k", "dw(F_k)", "local width", "|GtG(T1[r1])|", "time"},
	}
	for k := 2; k <= kMax; k++ {
		f := gen.Fk(k)
		var dw, lw, gtgSize int
		d := timed(func() {
			dw = core.DominationWidth(f)
			lw = core.LocalWidth(f)
			fs := ptree.ForestSubtree{Forest: f, TreeIndex: 0,
				Subtree: ptree.NewSubtree(f[0], f[0].Root.ID)}
			gtgSize = len(ptree.GtG(fs))
		})
		t.AddRow(fmt.Sprint(k), fmt.Sprint(dw), fmt.Sprint(lw), fmt.Sprint(gtgSize), ms(d))
	}
	return t
}

// E3 is the headline frontier experiment: evaluating µ over F_k on
// adversarial data (Turán graph, no k-clique, no q-edges) makes the
// natural algorithm refute a k-clique — exponential in k — while the
// Theorem 1 pebble algorithm stays polynomial. Both must return true.
func E3BoundedDW(kMax, n int) *Table {
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("F_k evaluation on adversarial Turán data (n=%d)", n),
		Claim:  "naive grows exponentially in k; pebble stays polynomial (Theorem 1)",
		Header: []string{"k", "|G|", "naive", "pebble(k=1)", "agree", "answer"},
	}
	for k := 2; k <= kMax; k++ {
		f := gen.Fk(k)
		mu := gen.FkMu()
		g := gen.FkData(k, n, false, false)
		var ansN, ansP bool
		dN := timed(func() { ansN = core.Eval(core.AlgNaive, 0, f, g, mu) })
		dP := timed(func() { ansP = core.Eval(core.AlgPebble, 1, f, g, mu) })
		t.AddRow(fmt.Sprint(k), fmt.Sprint(g.Len()), ms(dN), ms(dP),
			fmt.Sprint(ansN == ansP), fmt.Sprint(ansN))
	}
	return t
}

// E4 covers the Section 3.2 UNION-free family T'_k: bounded branch
// treewidth (bw = 1 = dw, Proposition 5) without local tractability,
// and fast evaluation by both algorithms.
func E4BranchTreewidth(kMax, n int) *Table {
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("T'_k: widths and evaluation (Turán data, n=%d)", n),
		Claim:  "bw(T'_k)=1=dw (Prop. 5) while local width = k-1 (§3.2)",
		Header: []string{"k", "bw", "dw", "local", "naive", "pebble(k=1)", "agree"},
	}
	for k := 2; k <= kMax; k++ {
		tk := gen.TkPrime(k)
		f := ptree.Forest{tk}
		bw := core.BranchTreewidth(tk)
		dw := core.DominationWidth(f)
		lw := core.LocalWidth(f)
		g := gen.TkPrimeData(n, k)
		mu := rdf.Mapping{"y": "b"}
		var ansN, ansP bool
		dN := timed(func() { ansN = core.Eval(core.AlgNaive, 0, f, g, mu) })
		dP := timed(func() { ansP = core.Eval(core.AlgPebble, 1, f, g, mu) })
		t.AddRow(fmt.Sprint(k), fmt.Sprint(bw), fmt.Sprint(dw), fmt.Sprint(lw),
			ms(dN), ms(dP), fmt.Sprint(ansN == ansP))
	}
	return t
}

// E5 runs the Theorem 2 reduction end-to-end: p-CLIQUE instances are
// compiled to co-wdEVAL and solved by the natural algorithm; the
// verdicts must match a direct clique search, polynomial in |H| for
// fixed k and exploding with k.
func E5CliqueReduction(ks []int, ns []int, seed int64) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "p-CLIQUE via the Section 4 reduction to co-wdEVAL",
		Claim:  "H has k-clique ⟺ µ ∉ ⟦P⟧G; poly in |H| for fixed k (Thm 2)",
		Header: []string{"k", "|V(H)|", "|E(H)|", "|G|", "build", "co-wdEVAL", "verdict", "oracle agrees"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range ks {
		for _, n := range ns {
			h := graphalg.NewUGraph(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 0.5 {
						h.AddEdge(i, j)
					}
				}
			}
			var in *reduction.Instance
			var err error
			dBuild := timed(func() { in, err = reduction.New(k, h) })
			if err != nil {
				t.AddRow(fmt.Sprint(k), fmt.Sprint(n), "-", "-", "-", "-", "error", err.Error())
				continue
			}
			var verdict bool
			dEval := timed(func() { verdict = in.SolveCliqueViaEval() })
			oracle := graphalg.HasClique(h, k)
			t.AddRow(fmt.Sprint(k), fmt.Sprint(n), fmt.Sprint(h.EdgeCount()),
				fmt.Sprint(in.G.Len()), ms(dBuild), ms(dEval),
				fmt.Sprint(verdict), fmt.Sprint(verdict == oracle))
		}
	}
	return t
}

// E6 compares the existential k-pebble test against full homomorphism
// search on the K_k query over Turán graphs: verdicts differ exactly
// where Proposition 3's ctw ≤ k−1 premise fails, and the pebble test's
// cost stays polynomial while refutation explodes.
func E6PebbleVsHom(cliqueKs []int, n int) *Table {
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("pebble vs homomorphism on K_k queries over Turán T(n=%d, k-1)", n),
		Claim:  "pebble is PTIME and relaxes hom (Props 2-4); exact iff ctw ≤ pebbles-1",
		Header: []string{"clique k", "pebbles", "hom", "hom time", "pebble", "pebble time", "exact?"},
	}
	for _, k := range cliqueKs {
		pat := hom.NewTGraph(gen.KkTriples(k)...)
		gt := hom.NewGTGraph(pat, nil)
		g := gen.Turan(n, k-1, "r")
		var homAns bool
		dHom := timed(func() { homAns = hom.Exists(pat, g) })
		for _, pebbles := range []int{2, 3} {
			var pebAns bool
			dPeb := timed(func() { pebAns = pebble.Decide(pebbles, gt, rdf.NewMapping(), g) })
			t.AddRow(fmt.Sprint(k), fmt.Sprint(pebbles), fmt.Sprint(homAns), ms(dHom),
				fmt.Sprint(pebAns), ms(dPeb), fmt.Sprint(homAns == pebAns))
		}
	}
	return t
}

// E7 sweeps data size on the bounded-width F_3 workload: both
// algorithms are polynomial in |G| for a fixed query, with the pebble
// algorithm paying a (polynomial) game overhead and the naive
// algorithm paying the refutation overhead.
func E7DataScaling(k int, ns []int) *Table {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("data scaling for F_%d (adversarial data)", k),
		Claim:  "both algorithms scale polynomially in |G| for fixed query",
		Header: []string{"n", "|G|", "naive", "pebble(k=1)", "agree"},
	}
	f := gen.Fk(k)
	mu := gen.FkMu()
	for _, n := range ns {
		g := gen.FkData(k, n, false, false)
		var ansN, ansP bool
		dN := timed(func() { ansN = core.Eval(core.AlgNaive, 0, f, g, mu) })
		dP := timed(func() { ansP = core.Eval(core.AlgPebble, 1, f, g, mu) })
		t.AddRow(fmt.Sprint(n), fmt.Sprint(g.Len()), ms(dN), ms(dP), fmt.Sprint(ansN == ansP))
	}
	return t
}

// E8Data builds the batched-evaluation workload: a Turán graph
// T(n, k−1) over predicate r (adversarial for the K_k refutation, as
// in E3) plus a p-cycle over its vertices. Every p-edge yields one
// candidate mapping {?x ↦ nᵢ, ?y ↦ nᵢ₊₁} for the F_k root pattern, so
// the batch size scales with n, and each candidate's ?y vertex has
// Turán r-edges to drive the clique test of node n12.
func E8Data(k, n int) *rdf.Graph {
	g := gen.Turan(n, k-1, "r")
	for i := 0; i < n; i++ {
		g.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", (i+1)%n))
	}
	return g
}

// E8 measures the batched entry point Evaluator.EvalAll against the
// per-mapping loop: all candidate mappings of the F_k root pattern are
// evaluated against one encoded graph, with the forest compiled once
// and one decision plan per mapping domain, sequentially and on a
// worker pool.
func E8BatchEval(k, n, workers int) *Table {
	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("batched evaluation of all F_%d root candidates (n=%d)", k, n),
		Claim: "EvalAll compiles the forest once; worker pool scales it",
		Header: []string{"alg", "|G|", "mappings", "loop", "EvalAll",
			fmt.Sprintf("EvalAll(workers=%d)", workers), "accepted", "agree"},
	}
	f := gen.Fk(k)
	g := E8Data(k, n)
	root := ptree.NewSubtree(f[0], f[0].Root.ID)
	mus := hom.FindAll(root.Pattern(), g, 0)
	blind := core.CompileOpts{NoFilterPushdown: true} // decisions are filter-blind
	for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
		var loop, batch, batchPar []bool
		dLoop := timed(func() {
			loop = make([]bool, len(mus))
			for i, mu := range mus {
				loop[i] = core.Eval(alg, 1, f, g, mu)
			}
		})
		dBatch := timed(func() { batch = core.NewEvaluator(alg, 1, core.CompileForestOpts(f, g, blind)).EvalAll(mus) })
		dPar := timed(func() {
			batchPar = core.NewEvaluator(alg, 1, core.CompileForestOpts(f, g, blind)).EvalAllParallel(mus, workers)
		})
		accepted, agree := 0, true
		for i := range mus {
			if batch[i] {
				accepted++
			}
			if batch[i] != loop[i] || batchPar[i] != loop[i] {
				agree = false
			}
		}
		t.AddRow(alg.String(), fmt.Sprint(g.Len()), fmt.Sprint(len(mus)),
			ms(dLoop), ms(dBatch), ms(dPar),
			fmt.Sprint(accepted), fmt.Sprint(agree))
	}
	return t
}

// EnumTree is the enumeration workload of E16 and E17: a wdPT in the
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
func EnumTree() *ptree.Tree {
	v := rdf.Var
	i := rdf.IRI
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

// EnumPatternText is EnumTree written as a graph pattern, so it can
// enter the public engine API through Prepare (its wdpf is exactly
// EnumTree).
const EnumPatternText = `(((?x p0 ?y) OPT ((?y p1 ?z) OPT (?z p2 ?u))) OPT (?y p3 ?w))`

// EnumData builds the enumeration graph: an Erdős–Rényi graph over 4
// predicates.
func EnumData(n int) *rdf.Graph {
	return gen.Random(n, 4*n, 4, 7)
}

// Experiment is a named, lazily-run experiment: Run executes the
// sweeps and builds the table. Callers that only want some experiments
// (wdbench -only, profiling runs) filter by ID before paying for
// execution.
type Experiment struct {
	ID  string
	Run func() *Table
}

// Experiments returns the E-series as lazily-run experiments: E1..E8,
// E16 and E17. DESIGN.md §10 says where the questions of the numbers in
// between are answered now.
func Experiments(full bool, workers int) []Experiment {
	e3Max := 6
	e16N := 2048
	if full {
		e3Max = 7
		e16N = 8192
	}
	return []Experiment{
		{"E1", func() *Table { return E1CoreTreewidth(7) }},
		{"E2", func() *Table { return E2DominationWidth(5) }},
		{"E3", func() *Table { return E3BoundedDW(e3Max, 24) }},
		{"E4", func() *Table { return E4BranchTreewidth(7, 24) }},
		{"E5", func() *Table { return E5CliqueReduction([]int{2, 3}, []int{6, 10, 14}, 42) }},
		{"E6", func() *Table { return E6PebbleVsHom([]int{3, 4, 5}, 15) }},
		{"E7", func() *Table { return E7DataScaling(3, []int{12, 24, 48, 96, 192}) }},
		{"E8", func() *Table { return E8BatchEval(3, 24, workers) }},
		{"E16", func() *Table { return E16Planner(e16N) }},
		{"E17", func() *Table { return E17FilterPushdown(e16N) }},
	}
}

// Suite runs the experiment suite, E8 on four workers. With full=false
// the sweeps stop where every row completes in at most a few seconds;
// full=true extends E3 into the regime where the natural algorithm
// needs tens of seconds per instance (the point of the experiment).
func Suite(full bool) []*Table {
	specs := Experiments(full, 4)
	out := make([]*Table, len(specs))
	for i, s := range specs {
		out[i] = s.Run()
	}
	return out
}

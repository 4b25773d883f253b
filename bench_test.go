package wdsparql_test

// One testing.B benchmark per experiment of DESIGN.md. The bench
// targets mirror the wdbench tables: run
//
//	go test -bench=. -benchmem
//
// End-to-end and per-layer performance across changes is measured by
// benchmark/ (see benchmark/README.md), not by these.
// Sub-benchmarks carry the swept parameter in their name (k for query
// families, n for data sizes). The workloads come from internal/bench
// and run on the internal packages directly, as the tables do.

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql/internal/bench"
	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/reduction"
	"wdsparql/internal/sparql"
)

// BenchmarkE1CoreTreewidth measures ctw computation on the Figure 1
// t-graphs (core computation + exact treewidth).
func BenchmarkE1CoreTreewidth(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		s := gen.ExampleS(k)
		sp := gen.ExampleSPrime(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := core.CTW(s); got != k-1 {
					b.Fatalf("ctw(S)=%d", got)
				}
				if got := core.CTW(sp); got != 1 {
					b.Fatalf("ctw(S')=%d", got)
				}
			}
		})
	}
}

// BenchmarkE2DominationWidth measures dw(F_k) (subtree enumeration,
// GtG construction, domination search).
func BenchmarkE2DominationWidth(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		f := gen.Fk(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := core.DominationWidth(f); got != 1 {
					b.Fatalf("dw=%d", got)
				}
			}
		})
	}
}

// BenchmarkE3BoundedDW is the headline frontier benchmark: F_k
// evaluation on adversarial Turán data. The naive series grows
// exponentially in k; the pebble series stays polynomial.
func BenchmarkE3BoundedDW(b *testing.B) {
	const n = 24
	for _, k := range []int{2, 3, 4, 5} {
		f := gen.Fk(k)
		mu := gen.FkMu()
		g := gen.FkData(k, n, false, false)
		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.Eval(core.AlgNaive, 0, f, g, mu) {
					b.Fatal("expected acceptance")
				}
			}
		})
		b.Run(fmt.Sprintf("pebble/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.Eval(core.AlgPebble, 1, f, g, mu) {
					b.Fatal("expected acceptance")
				}
			}
		})
	}
}

// BenchmarkE4BranchTreewidth measures the T'_k family: width
// computation and evaluation.
func BenchmarkE4BranchTreewidth(b *testing.B) {
	const n = 24
	for _, k := range []int{2, 4, 6} {
		tk := gen.TkPrime(k)
		f := ptree.Forest{tk}
		g := gen.TkPrimeData(n, k)
		mu := rdf.Mapping{"y": "b"}
		b.Run(fmt.Sprintf("bw/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := core.BranchTreewidth(tk); got != 1 {
					b.Fatalf("bw=%d", got)
				}
			}
		})
		b.Run(fmt.Sprintf("eval-pebble/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Eval(core.AlgPebble, 1, f, g, mu)
			}
		})
		b.Run(fmt.Sprintf("eval-naive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Eval(core.AlgNaive, 0, f, g, mu)
			}
		})
	}
}

// BenchmarkE5CliqueReduction measures the Theorem 2 pipeline: instance
// construction plus co-wdEVAL, scaling in |V(H)| for fixed k. Hosts
// are deterministic pseudo-random graphs with edge density 1/2 (the
// regime of the wdbench E5 table).
func BenchmarkE5CliqueReduction(b *testing.B) {
	for _, k := range []int{2, 3} {
		for _, n := range []int{6, 9, 12} {
			h := graphalg.NewUGraph(n)
			rng := rand.New(rand.NewSource(int64(100*k + n)))
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Intn(2) == 0 {
						h.AddEdge(i, j)
					}
				}
			}
			want := graphalg.HasClique(h, k)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					in, err := reduction.New(k, h)
					if err != nil {
						b.Fatal(err)
					}
					if got := in.SolveCliqueViaEval(); got != want {
						b.Fatalf("verdict %v, oracle %v", got, want)
					}
				}
			})
		}
	}
}

// BenchmarkE6PebbleVsHom measures the pebble test against full
// homomorphism search on K_k queries over clique-free Turán graphs
// (the refutation case, where backtracking explodes).
func BenchmarkE6PebbleVsHom(b *testing.B) {
	const n = 15
	for _, k := range []int{3, 4, 5} {
		pat := hom.NewTGraph(gen.KkTriples(k)...)
		gt := hom.NewGTGraph(pat, nil)
		g := gen.Turan(n, k-1, "r")
		b.Run(fmt.Sprintf("hom/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if hom.Exists(pat, g) {
					b.Fatal("Turán graph has no k-clique")
				}
			}
		})
		b.Run(fmt.Sprintf("pebble2/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pebble.Decide(2, gt, rdf.NewMapping(), g)
			}
		})
	}
}

// BenchmarkE7DataScaling sweeps |G| for the fixed F_3 query.
func BenchmarkE7DataScaling(b *testing.B) {
	const k = 3
	f := gen.Fk(k)
	mu := gen.FkMu()
	for _, n := range []int{12, 24, 48, 96} {
		g := gen.FkData(k, n, false, false)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Eval(core.AlgNaive, 0, f, g, mu)
			}
		})
		b.Run(fmt.Sprintf("pebble/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Eval(core.AlgPebble, 1, f, g, mu)
			}
		})
	}
}

// BenchmarkMatchMappings measures the base-case evaluation ⟦t⟧G on a
// medium random graph, across the pattern shapes that exercise each
// positional index (bound predicate, fully unbound, repeated
// variable). Tracks the dictionary-encoding speedup of the ID-native
// storage layer.
func BenchmarkMatchMappings(b *testing.B) {
	g := gen.Random(256, 4096, 4, 11)
	pats := []rdf.Triple{
		rdf.T(rdf.Var("s"), rdf.IRI("p0"), rdf.Var("o")),
		rdf.T(rdf.Var("s"), rdf.Var("p"), rdf.Var("o")),
		rdf.T(rdf.Var("s"), rdf.IRI("p1"), rdf.Var("s")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pats {
			benchSink = g.MatchMappings(p)
		}
	}
}

var benchSink []rdf.Mapping

// BenchmarkEvalAll measures the batched evaluation entry point on the
// E8 workload (one candidate mapping per p-edge, F_3 query), loop vs
// EvalAll vs EvalAll with a worker pool.
func BenchmarkEvalAll(b *testing.B) {
	const k, n = 3, 24
	f := gen.Fk(k)
	g := bench.E8Data(k, n)
	root := ptree.NewSubtree(f[0], f[0].Root.ID)
	mus := hom.FindAll(root.Pattern(), g, 0)
	if len(mus) == 0 {
		b.Fatal("no candidate mappings")
	}
	for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
		b.Run(fmt.Sprintf("%s/loop", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, mu := range mus {
					core.Eval(alg, 1, f, g, mu)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/batch", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewEvaluator(alg, 1, core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: true})).EvalAll(mus)
			}
		})
		b.Run(fmt.Sprintf("%s/parallel", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewEvaluator(alg, 1, core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: true})).EvalAllParallel(mus, 4)
			}
		})
	}
}

// BenchmarkMicroHomSolver measures the raw homomorphism solver on
// path queries (ablation baseline for the join-ordering heuristic).
func BenchmarkMicroHomSolver(b *testing.B) {
	g := gen.Random(64, 512, 2, 7)
	var pats []rdf.Triple
	for i := 0; i < 4; i++ {
		pats = append(pats, rdf.T(rdf.Var(fmt.Sprintf("v%d", i)), rdf.IRI("p0"), rdf.Var(fmt.Sprintf("v%d", i+1))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hom.Exists(pats, g)
	}
}

// BenchmarkMicroPebbleClosure measures one pebble-game closure on a
// medium instance (ablation baseline for the deletion propagation).
func BenchmarkMicroPebbleClosure(b *testing.B) {
	pat := hom.NewTGraph(gen.KkTriples(4)...)
	gt := hom.NewGTGraph(pat, nil)
	g := gen.Turan(18, 3, "r")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pebble.Decide(2, gt, rdf.NewMapping(), g)
	}
}

// BenchmarkE16Planner measures the compile-time query planner on the
// E16 enumeration workload: the ordered enumeration (planner on runs
// the complete-dead-detection planned mode, stream byte-identical to
// the heuristic) and the order-free count (planner on runs strict
// plan-following) — the modes the engine runs for Rows and Count,
// against the per-node heuristic. The wdbench E16 table carries the
// search-node and probe counters; this benchmark tracks the wall-time
// side under `go test -bench`.
func BenchmarkE16Planner(b *testing.B) {
	g := bench.EnumData(4096).Freeze()
	fp := core.CompileForest(ptree.Forest{bench.EnumTree()}, g)
	for _, cfg := range []struct {
		name        string
		enum, count hom.SearchMode
	}{
		{"on", hom.ModePlanned, hom.ModeStrict},
		{"off", hom.ModeHeuristic, hom.ModeHeuristic},
	} {
		b.Run("enum/planner-"+cfg.name, func(b *testing.B) {
			b.ReportMetric(float64(benchRows(b, fp.Tuned(cfg.enum, 0, nil))), "rows")
		})
		b.Run("count/planner-"+cfg.name, func(b *testing.B) {
			benchRows(b, fp.Tuned(cfg.count, 0, nil))
		})
	}
}

// benchRows drains fp b.N times, failing if the row count changes
// between runs, and returns the count.
func benchRows(b *testing.B, fp *core.ForestProgram) int {
	want := -1
	for i := 0; i < b.N; i++ {
		n := 0
		fp.Rows(func(rdf.Row) bool { n++; return true })
		if want == -1 {
			want = n
		} else if n != want {
			b.Fatalf("row count changed: %d vs %d", n, want)
		}
	}
	return want
}

// BenchmarkE17FilterPushdown measures the bind-time filter pushdown
// against all-deferred evaluation: a selective equality filter over the
// E16 optional chain, plain and under a projected DISTINCT, compiled
// both ways as the E17 table does.
func BenchmarkE17FilterPushdown(b *testing.B) {
	g := bench.EnumData(4096).Freeze()
	hub := bench.E17Hub(g)
	queries := []struct{ name, text string }{
		{"eq-filter", `(` + bench.EnumPatternText + ` FILTER ?y = ` + hub + `)`},
		{"sel-distinct", `SELECT DISTINCT ?y WHERE (` + bench.EnumPatternText + ` FILTER NOT ?y = ` + hub + `)`},
	}
	for _, w := range queries {
		q := sparql.MustParse(w.text)
		for _, cfg := range []struct {
			name   string
			noPush bool
		}{
			{"on", false},
			{"off", true},
		} {
			fp := bench.E17Compile(q, g, cfg.noPush)
			b.Run(w.name+"/pushdown-"+cfg.name, func(b *testing.B) {
				b.ReportMetric(float64(benchRows(b, fp)), "rows")
			})
		}
	}
}

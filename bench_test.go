package wdsparql_test

// The timing sweeps of the experiments of DESIGN.md §10, one
// testing.B benchmark per experiment (E1–E8, E16, E17, and the
// ablations A1–A3 and M1 as sub-benchmarks of the solver, pebble,
// treewidth and enumeration benchmarks): run
//
//	go test -run '^$' -bench . -benchmem
//
// and add -cpuprofile/-memprofile for pprof evidence. The checks of
// the same experiments are tier-1 tests (§10 names each one);
// end-to-end and per-layer performance across changes is measured by
// benchmark/ (see benchmark/README.md), not by these. Sub-benchmarks
// carry the swept parameter in their name (k for query families, n
// for data sizes) and the compared variant last. Search counters
// (nodes/op, count_probes/op, filter_pruned/op) come from one counted
// pass outside the timed loop. The workloads run on the internal
// packages directly; experiments_test.go builds the E8, E16 and E17
// ones.

import (
	"fmt"
	"math/rand"
	"testing"

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
// regime of the E5 experiment).
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
		for _, pebbles := range []int{2, 3} {
			b.Run(fmt.Sprintf("pebble%d/k=%d", pebbles, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pebble.Decide(pebbles, gt, rdf.NewMapping(), g)
				}
			})
		}
	}
}

// BenchmarkE7DataScaling sweeps |G| for the fixed F_3 query.
func BenchmarkE7DataScaling(b *testing.B) {
	const k = 3
	f := gen.Fk(k)
	mu := gen.FkMu()
	for _, n := range []int{12, 24, 48, 96, 192} {
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
	g := e8Data(k, n)
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

// BenchmarkMicroHomSolver measures the raw homomorphism solver and
// ablates its fail-first join ordering (A1): the row search behind
// hom.Exists against hom.ExistsStaticOrder, on a path query over a
// random graph and on the K_k refutation over clique-free Turán graphs.
// nodes/op counts the row search's expanded nodes.
func BenchmarkMicroHomSolver(b *testing.B) {
	type instance struct {
		name string
		pats []rdf.Triple
		g    *rdf.Graph
	}
	var path []rdf.Triple
	for i := 0; i < 4; i++ {
		path = append(path, rdf.T(rdf.Var(fmt.Sprintf("v%d", i)), rdf.IRI("p0"), rdf.Var(fmt.Sprintf("v%d", i+1))))
	}
	instances := []instance{{"path", path, gen.Random(64, 512, 2, 7)}}
	for _, k := range []int{3, 4, 5} {
		instances = append(instances, instance{fmt.Sprintf("turan/k=%d", k),
			hom.NewTGraph(gen.KkTriples(k)...), gen.Turan(15, k-1, "r")})
	}
	for _, in := range instances {
		nodes := searchNodes(in.pats, in.g)
		b.Run(in.name+"/fail-first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hom.Exists(in.pats, in.g)
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
		b.Run(in.name+"/static-order", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hom.ExistsStaticOrder(in.pats, in.g)
			}
		})
	}
}

// searchNodes runs the row search behind hom.Exists once, counted.
func searchNodes(pats []rdf.Triple, g *rdf.Graph) int64 {
	var st hom.SearchStats
	layout := rdf.NewSlotLayout()
	s := hom.CompileRowProgram(pats, g, layout).NewSearcher()
	s.Tune(hom.ModeHeuristic, 0, &st)
	s.Run(layout.NewRow(), func() bool { return false })
	return st.Nodes
}

// BenchmarkMicroPebbleClosure measures one pebble-game closure: the
// 2-pebble game of K_4 on a Turán graph, and the ablation of unary
// candidate pruning (A2) on the extension test of T1's clique child in
// the E3 workload (F_k over adversarial Turán data).
func BenchmarkMicroPebbleClosure(b *testing.B) {
	pat := hom.NewTGraph(gen.KkTriples(4)...)
	gt := hom.NewGTGraph(pat, nil)
	g := gen.Turan(18, 3, "r")
	b.Run("turan/k=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pebble.Decide(2, gt, rdf.NewMapping(), g)
		}
	})
	for _, k := range []int{3, 4, 5} {
		f := gen.Fk(k)
		g := gen.FkData(k, 24, false, false)
		mu := gen.FkMu()
		s, ok := core.FindMatchedSubtree(f[0], g, mu)
		if !ok {
			b.Fatalf("k=%d: no matched subtree", k)
		}
		child := s.Children()[0]
		gt := hom.NewGTGraph(s.Pattern().Union(child.Pattern), s.Vars())
		for _, v := range []struct {
			name   string
			decide func(int, hom.GTGraph, rdf.Mapping, *rdf.Graph) bool
		}{{"pruned", pebble.Decide}, {"unpruned", pebble.DecideNoUnaryPruning}} {
			b.Run(fmt.Sprintf("fk/k=%d/%s", k, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.decide(2, gt, mu, g)
				}
			})
		}
	}
}

// BenchmarkTreewidth (A3) times the exact subset dynamic program
// against the elimination heuristics (upper and lower bound) on
// cliques and grids, where the heuristic bound is already optimal.
func BenchmarkTreewidth(b *testing.B) {
	type host struct {
		name string
		g    *graphalg.UGraph
	}
	var hosts []host
	for k := 3; k <= 7; k++ {
		hosts = append(hosts, host{fmt.Sprintf("K%d", k), graphalg.Clique(k)})
	}
	hosts = append(hosts, host{"grid4x4", graphalg.Grid(4, 4)}, host{"grid3x6", graphalg.Grid(3, 6)})
	for _, h := range hosts {
		b.Run(h.name+"/exact", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graphalg.Treewidth(h.g)
			}
		})
		b.Run(h.name+"/heuristic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graphalg.TreewidthUpperBound(h.g)
				graphalg.TreewidthLowerBound(h.g)
			}
		})
	}
}

// BenchmarkEnumeration (M1) compares the three enumeration strategies
// on OPTIONAL-heavy application workloads: subtree enumeration,
// top-down enumeration and the hash-join compositional evaluator.
func BenchmarkEnumeration(b *testing.B) {
	for _, w := range []struct {
		name string
		f    ptree.Forest
		g    *rdf.Graph
	}{
		{"social/60", ptree.MustWDPF(sparql.MustParse(
			`(((?p knows ?q) OPT (?p worksAt ?org)) OPT (?q email ?m))`)), gen.SocialNetwork(60, 1)},
		{"star/6arms/50items", ptree.Forest{gen.OptStar(6)}, gen.ItemCatalog(50, 6, 2)},
		{"chain/depth6", ptree.Forest{gen.OptChain(6)}, gen.PathData(40, 30, 3)},
	} {
		pat := ptree.ForestToPattern(w.f)
		b.Run(w.name+"/subtree-enum", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EnumerateForest(w.f, w.g)
			}
		})
		b.Run(w.name+"/top-down", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EnumerateTopDownForest(w.f, w.g)
			}
		})
		b.Run(w.name+"/hash-join", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparql.EvalHashJoin(pat, w.g)
			}
		})
	}
}

// BenchmarkE16Planner measures the compile-time query planner against
// the per-node heuristic on the E16 shapes (the enumTree wdPT, a
// single-node chain, a sparse directed triangle), unsealed and frozen:
// the ordered enumeration (planner on runs the planned mode, its stream
// byte-identical to the heuristic's) and the order-free count (planner
// on runs strict plan-following) — the modes the engine runs for Rows
// and Count. TestE16PlannerModesAgree checks the same runs at the same
// n.
func BenchmarkE16Planner(b *testing.B) {
	for _, sh := range plannerShapes(2048) {
		for _, be := range backends(sh.g) {
			fp := core.CompileForest(sh.f, be.g)
			for _, cfg := range []struct {
				name        string
				enum, count hom.SearchMode
			}{
				{"on", hom.ModePlanned, hom.ModeStrict},
				{"off", hom.ModeHeuristic, hom.ModeHeuristic},
			} {
				for _, ex := range []struct {
					name string
					mode hom.SearchMode
				}{{"enum", cfg.enum}, {"count", cfg.count}} {
					var st hom.SearchStats
					fp.Tuned(ex.mode, 0, &st).Rows(func(rdf.Row) bool { return true })
					b.Run(sh.name+"/"+be.name+"/"+ex.name+"/planner-"+cfg.name, func(b *testing.B) {
						b.ReportMetric(float64(benchRows(b, fp.Tuned(ex.mode, 0, nil))), "rows")
						b.ReportMetric(float64(st.Nodes), "nodes/op")
						b.ReportMetric(float64(st.CountProbes), "count_probes/op")
					})
				}
			}
		}
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

// BenchmarkE17FilterPushdown measures bind-time filter pushdown
// against all-deferred evaluation on the E17 query mix, compiled both
// ways, over the frozen graph the engine serves from.
// TestE17PushdownAgrees checks the same queries on the unsealed graph.
func BenchmarkE17FilterPushdown(b *testing.B) {
	g := enumData(2048).Freeze()
	for _, w := range e17Queries(e17Hub(g)) {
		q := sparql.MustParse(w.text)
		for _, cfg := range []struct {
			name   string
			noPush bool
		}{
			{"on", false},
			{"off", true},
		} {
			fp := e17Compile(b, q, g, cfg.noPush)
			var st hom.SearchStats
			fp.Tuned(hom.ModeHeuristic, 0, &st).Rows(func(rdf.Row) bool { return true })
			b.Run(w.name+"/pushdown-"+cfg.name, func(b *testing.B) {
				b.ReportMetric(float64(benchRows(b, fp)), "rows")
				b.ReportMetric(float64(st.Nodes), "nodes/op")
				b.ReportMetric(float64(st.FilterPruned), "filter_pruned/op")
			})
		}
	}
}

// Package bench holds one check per E-series experiment of the paper
// (E1–E8), each recomputing the values and agree columns the
// experiment reports straight from the library. It has no non-test
// code: the timing sweeps are benchmarks in the root bench_test.go,
// and DESIGN.md §10 maps each experiment to its checks and sweep.
package bench

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
)

// E1, Example 3 / Figure 1: at k = 4, ctw(S,X) = 3, tw(S',X) = 3,
// ctw(S',X) = 1, and S is a core.
func TestE1Values(t *testing.T) {
	k := 4
	s, sp := gen.ExampleS(k), gen.ExampleSPrime(k)
	if got := core.CTW(s); got != 3 {
		t.Fatalf("ctw(S,X) = %d, want 3", got)
	}
	if got := core.TW(sp); got != 3 {
		t.Fatalf("tw(S',X) = %d, want 3", got)
	}
	if got := core.CTW(sp); got != 1 {
		t.Fatalf("ctw(S',X) = %d, want 1", got)
	}
	if !hom.IsCore(s) {
		t.Fatal("S must be a core")
	}
}

// E2, Examples 4–5: dw(F_k) = 1 and |GtG(T1[r1])| = 2 for k = 2, 3.
func TestE2Values(t *testing.T) {
	for k := 2; k <= 3; k++ {
		f := gen.Fk(k)
		if dw := core.DominationWidth(f); dw != 1 {
			t.Fatalf("k=%d: dw(F_k) = %d, want 1", k, dw)
		}
		fs := ptree.ForestSubtree{Forest: f, TreeIndex: 0,
			Subtree: ptree.NewSubtree(f[0], f[0].Root.ID)}
		if n := len(ptree.GtG(fs)); n != 2 {
			t.Fatalf("k=%d: |GtG(T1[r1])| = %d, want 2", k, n)
		}
	}
}

// evalBoth runs the natural and the 1-pebble algorithm on one instance.
func evalBoth(f ptree.Forest, g *rdf.Graph, mu rdf.Mapping) (naive, peb bool) {
	return core.Eval(core.AlgNaive, 0, f, g, mu), core.Eval(core.AlgPebble, 1, f, g, mu)
}

// E3, Theorem 1: on F_k over adversarial Turán data (n = 12) both
// algorithms accept µ, for k = 2, 3.
func TestE3Agreement(t *testing.T) {
	for k := 2; k <= 3; k++ {
		ansN, ansP := evalBoth(gen.Fk(k), gen.FkData(k, 12, false, false), gen.FkMu())
		if ansN != ansP {
			t.Fatalf("k=%d: naive %v, pebble %v", k, ansN, ansP)
		}
		if !ansN {
			t.Fatalf("k=%d: µ must be a member", k)
		}
	}
}

// E4, §3.2 / Proposition 5: bw(T'_k) = dw(T'_k) = 1, and the two
// algorithms agree on Turán data (n = 12), for k = 2, 3.
func TestE4Agreement(t *testing.T) {
	for k := 2; k <= 3; k++ {
		tk := gen.TkPrime(k)
		f := ptree.Forest{tk}
		if bw, dw := core.BranchTreewidth(tk), core.DominationWidth(f); bw != 1 || dw != 1 {
			t.Fatalf("k=%d: bw=%d dw=%d, want 1 and 1", k, bw, dw)
		}
		ansN, ansP := evalBoth(f, gen.TkPrimeData(12, k), rdf.Mapping{"y": "b"})
		if ansN != ansP {
			t.Fatalf("k=%d: naive %v, pebble %v", k, ansN, ansP)
		}
	}
}

// E5, Theorem 2: on random hosts (seed 1, density 1/2) the reduction's
// co-wdEVAL verdict equals a direct clique search, for k ∈ {2, 3} and
// |V(H)| ∈ {5, 7}.
func TestE5OracleAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 3} {
		for _, n := range []int{5, 7} {
			h := graphalg.NewUGraph(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 0.5 {
						h.AddEdge(i, j)
					}
				}
			}
			in, err := reduction.New(k, h)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			if got, want := in.SolveCliqueViaEval(), graphalg.HasClique(h, k); got != want {
				t.Fatalf("k=%d n=%d: reduction %v, oracle %v", k, n, got, want)
			}
		}
	}
}

// E6, Propositions 2–4: K_3 has no homomorphism into T(9, 2), and with
// 3 pebbles (ctw(K_3) = 2) the game is exact, so it loses too.
func TestE6RelaxationColumns(t *testing.T) {
	pat := hom.NewTGraph(gen.KkTriples(3)...)
	g := gen.Turan(9, 2, "r")
	if hom.Exists(pat, g) {
		t.Fatal("hom must fail on Turán")
	}
	if pebble.Decide(3, hom.NewGTGraph(pat, nil), rdf.NewMapping(), g) {
		t.Fatal("3 pebbles must be exact on K3")
	}
}

// E7, data scaling: on F_3 the two algorithms agree at n = 8 and 16.
func TestE7Agreement(t *testing.T) {
	f, mu := gen.Fk(3), gen.FkMu()
	for _, n := range []int{8, 16} {
		if ansN, ansP := evalBoth(f, gen.FkData(3, n, false, false), mu); ansN != ansP {
			t.Fatalf("n=%d: naive %v, pebble %v", n, ansN, ansP)
		}
	}
}

// E8, batched wdEVAL: every candidate mapping of F_2's root pattern over
// T(12, 1) plus a p-cycle is evaluated by the per-mapping loop, by
// EvalAll and by EvalAllParallel on two workers; the batch is non-empty
// and the three agree, for both algorithms.
func TestE8Agreement(t *testing.T) {
	k, n := 2, 12
	f := gen.Fk(k)
	g := gen.Turan(n, k-1, "r")
	for i := 0; i < n; i++ {
		g.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", (i+1)%n))
	}
	root := ptree.NewSubtree(f[0], f[0].Root.ID)
	mus := hom.FindAll(root.Pattern(), g, 0)
	if len(mus) == 0 {
		t.Fatal("E8 must evaluate a non-empty batch")
	}
	blind := core.CompileOpts{NoFilterPushdown: true}
	for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
		batch := core.NewEvaluator(alg, 1, core.CompileForestOpts(f, g, blind)).EvalAll(mus)
		par := core.NewEvaluator(alg, 1, core.CompileForestOpts(f, g, blind)).EvalAllParallel(mus, 2)
		for i, mu := range mus {
			loop := core.Eval(alg, 1, f, g, mu)
			if batch[i] != loop || par[i] != loop {
				t.Fatalf("%v, mapping %v: loop %v, EvalAll %v, parallel %v", alg, mu, loop, batch[i], par[i])
			}
		}
	}
}

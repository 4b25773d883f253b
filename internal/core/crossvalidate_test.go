package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Cross-validation: four independent implementations of well-designed
// SPARQL evaluation must agree on randomized inputs —
//
//  1. the compositional Pérez-et-al. semantics (sparql.Eval),
//  2. Lemma 1 enumeration over all subtrees (core.EnumerateForest),
//  3. the natural decision algorithm (core.Eval under AlgNaive), and
//  4. the Theorem 1 pebble algorithm with k = dw(F) (core.Eval under AlgPebble).
//
// Agreement of (1) and (2) validates the wdpf translation (including
// NR normalisation); agreement of (3) and (4) on members and
// non-members validates the decision procedures and, for (4), the
// heart of Theorem 1.

// randPattern generates a random UNION-free pattern over a small
// vocabulary; callers filter for well-designedness.
func randPattern(rng *rand.Rand, depth int) sparql.Pattern {
	if depth == 0 || rng.Intn(3) == 0 {
		return sparql.Triple{T: randTriple(rng)}
	}
	l := randPattern(rng, depth-1)
	r := randPattern(rng, depth-1)
	if rng.Intn(2) == 0 {
		return sparql.And(l, r)
	}
	return sparql.Opt(l, r)
}

func randTriple(rng *rand.Rand) rdf.Triple {
	vars := []rdf.Term{rdf.Var("x"), rdf.Var("y"), rdf.Var("z"), rdf.Var("w")}
	iris := []rdf.Term{rdf.IRI("a"), rdf.IRI("b")}
	preds := []rdf.Term{rdf.IRI("p"), rdf.IRI("q")}
	pick := func(pool []rdf.Term) rdf.Term { return pool[rng.Intn(len(pool))] }
	pickSO := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return pick(iris)
		}
		return pick(vars)
	}
	return rdf.T(pickSO(), pick(preds), pickSO())
}

func randData(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q"}
	n := 4 + rng.Intn(8)
	for i := 0; i < n; i++ {
		g.AddTriple(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
	}
	return g
}

func TestCrossValidateUnionFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tried, used := 0, 0
	for used < 120 && tried < 5000 {
		tried++
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		g := randData(rng)
		checkAgreement(t, p, g, fmt.Sprintf("seed7/case%d", used))
	}
	if used < 60 {
		t.Fatalf("generator too weak: only %d well-designed patterns in %d tries", used, tried)
	}
}

func TestCrossValidateWithUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	used := 0
	for tries := 0; used < 60 && tries < 5000; tries++ {
		l := randPattern(rng, 2)
		r := randPattern(rng, 2)
		p := sparql.Union(l, r)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		g := randData(rng)
		checkAgreement(t, p, g, fmt.Sprintf("seed11/case%d", used))
	}
	if used < 30 {
		t.Fatalf("generator too weak: %d cases", used)
	}
}

func checkAgreement(t *testing.T, p sparql.Pattern, g *rdf.Graph, label string) {
	t.Helper()
	ref := sparql.Eval(p, g)
	f, err := ptree.WDPF(p)
	if err != nil {
		t.Fatalf("%s: wdpf(%s): %v", label, p, err)
	}
	enum := core.EnumerateForest(f, g)
	if ref.Len() != enum.Len() {
		t.Fatalf("%s: pattern %s\ncompositional %d solutions, Lemma-1 enumeration %d\nref=%v\nenum=%v",
			label, p, ref.Len(), enum.Len(), ref.Slice(), enum.Slice())
	}
	for _, mu := range ref.Slice() {
		if !enum.Contains(mu) {
			t.Fatalf("%s: %s: enumeration missing %s", label, p, mu)
		}
	}
	k := core.DominationWidth(f)
	// Members must be accepted by both decision procedures.
	for _, mu := range ref.Slice() {
		if !core.Eval(core.AlgNaive, 0, f, g, mu) {
			t.Fatalf("%s: %s: Eval(naive) rejects member %s", label, p, mu)
		}
		if !core.Eval(core.AlgPebble, k, f, g, mu) {
			t.Fatalf("%s: %s: Eval(pebble, k=%d) rejects member %s", label, p, k, mu)
		}
	}
	// Probe non-members: mutate members and try small synthetic
	// mappings.
	probes := []rdf.Mapping{
		{"x": "a"}, {"x": "a", "y": "b"}, {"x": "zzz"}, {},
		{"x": "a", "y": "b", "z": "c"},
	}
	for _, mu := range ref.Slice() {
		m := mu.Clone()
		for v := range m {
			m[v] = "nonexistent"
			break
		}
		probes = append(probes, m)
	}
	for _, mu := range probes {
		want := ref.Contains(mu)
		if got := core.Eval(core.AlgNaive, 0, f, g, mu); got != want {
			t.Fatalf("%s: %s: Eval(naive)(%s)=%v, want %v", label, p, mu, got, want)
		}
		if got := core.Eval(core.AlgPebble, k, f, g, mu); got != want {
			t.Fatalf("%s: %s: Eval(pebble, k=%d)(%s)=%v, want %v", label, p, k, mu, got, want)
		}
	}
}

// The F_k workload of experiment E3: both algorithms must agree on the
// adversarial data in all four configurations.
func TestFkWorkloadAgreement(t *testing.T) {
	for k := 2; k <= 4; k++ {
		f := gen.Fk(k)
		mu := gen.FkMu()
		for _, withQ := range []bool{false, true} {
			for _, withClique := range []bool{false, true} {
				g := gen.FkData(k, 4*(k-1), withQ, withClique)
				want := core.EnumerateForest(f, g).Contains(mu)
				if got := core.Eval(core.AlgNaive, 0, f, g, mu); got != want {
					t.Fatalf("k=%d q=%v clique=%v: naive=%v want %v", k, withQ, withClique, got, want)
				}
				if got := core.Eval(core.AlgPebble, 1, f, g, mu); got != want {
					t.Fatalf("k=%d q=%v clique=%v: pebble=%v want %v", k, withQ, withClique, got, want)
				}
			}
		}
	}
}

// Sanity of the E3 story. Without q-edges µ is always a solution: if
// the Turán graph has no k-clique, T1 accepts (after the expensive
// refutation of its n12 child); with a planted clique T1 rejects but
// T2 accepts — the domination mechanism in action. With the q-chain
// present, every tree has an extension and µ is not a solution.
func TestFkWorkloadShape(t *testing.T) {
	k := 3
	f := gen.Fk(k)
	mu := gen.FkMu()
	if !core.Eval(core.AlgNaive, 0, f, gen.FkData(k, 8, false, false), mu) {
		t.Fatal("no q, no clique: µ should be a solution (via T1)")
	}
	if !core.Eval(core.AlgNaive, 0, f, gen.FkData(k, 8, false, true), mu) {
		t.Fatal("no q, planted clique: µ should be a solution (via T2)")
	}
	if core.Eval(core.AlgNaive, 0, f, gen.FkData(k, 8, true, false), mu) {
		t.Fatal("q-chain, no clique: µ should not be a solution")
	}
	if core.Eval(core.AlgNaive, 0, f, gen.FkData(k, 8, true, true), mu) {
		t.Fatal("q-chain and clique: µ should not be a solution")
	}
}

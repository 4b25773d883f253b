package pebble

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// Property tests of the game-theoretic laws: monotonicity in the
// number of pebbles, the relaxation property with respect to →µ, and
// agreement of the ablation variant.

func randPattern(rng *rand.Rand, nvars, ntriples int) hom.TGraph {
	var ts []rdf.Triple
	vt := func() rdf.Term { return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars))) }
	for i := 0; i < ntriples; i++ {
		ts = append(ts, rdf.T(vt(), rdf.IRI([]string{"p", "q"}[rng.Intn(2)]), vt()))
	}
	return hom.NewTGraph(ts...)
}

func randGraphData(rng *rand.Rand, nodes, triples int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < triples; i++ {
		g.AddTriple(
			fmt.Sprintf("d%d", rng.Intn(nodes)),
			[]string{"p", "q"}[rng.Intn(2)],
			fmt.Sprintf("d%d", rng.Intn(nodes)))
	}
	return g
}

// More pebbles make the Spoiler stronger: a win with k+1 pebbles
// implies a win with k pebbles.
func TestQuickMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 150; trial++ {
		pat := randPattern(rng, 2+rng.Intn(4), 2+rng.Intn(4))
		g := randGraphData(rng, 4, 8)
		gt := hom.NewGTGraph(pat, nil)
		win2 := Decide(2, gt, rdf.NewMapping(), g)
		win3 := Decide(3, gt, rdf.NewMapping(), g)
		win4 := Decide(4, gt, rdf.NewMapping(), g)
		if win3 && !win2 {
			t.Fatalf("trial %d: k=3 win but k=2 loss", trial)
		}
		if win4 && !win3 {
			t.Fatalf("trial %d: k=4 win but k=3 loss", trial)
		}
	}
}

// Relaxation: hom existence implies a Duplicator win for every k; and
// with k ≥ number of free variables the game is exact. Besides random
// instances, experiment E6's: K_k over the clique-free Turán graph
// T(15, k−1), where hom fails and only 3 pebbles on K_3 are exact.
func TestQuickRelaxationAndExactness(t *testing.T) {
	check := func(name string, pat hom.TGraph, g *rdf.Graph) {
		gt := hom.NewGTGraph(pat, nil)
		homAns := hom.Exists(pat, g)
		nvars := len(pat.Vars())
		for k := 2; k <= 4; k++ {
			win := Decide(k, gt, rdf.NewMapping(), g)
			if homAns && !win {
				t.Fatalf("%s k=%d: hom exists but game lost", name, k)
			}
			if k >= nvars && win != homAns {
				t.Fatalf("%s k=%d ≥ nvars=%d: game %v, hom %v", name, k, nvars, win, homAns)
			}
		}
	}
	for k := 3; k <= 5; k++ {
		pat, g := hom.NewTGraph(gen.KkTriples(k)...), gen.Turan(15, k-1, "r")
		if hom.Exists(pat, g) {
			t.Fatalf("K_%d maps into the clique-free Turán graph", k)
		}
		check(fmt.Sprintf("K_%d on Turán", k), pat, g)
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 150; trial++ {
		pat := randPattern(rng, 2+rng.Intn(3), 2+rng.Intn(3))
		check(fmt.Sprintf("trial %d", trial), pat, randGraphData(rng, 3, 7))
	}
}

// The ablation variant computes the same verdict, on random instances
// and on experiment A2's: the 2-pebble extension test of T1's clique
// child in F_k over adversarial Turán data (E3's workload at n = 24).
func TestQuickNoUnaryPruningAgrees(t *testing.T) {
	for k := 3; k <= 5; k++ {
		tree := gen.Fk(k)[0]
		root := ptree.NewSubtree(tree, tree.Root.ID)
		gt := hom.NewGTGraph(root.Pattern().Union(root.Children()[0].Pattern), root.Vars())
		g, mu := gen.FkData(k, 24, false, false), gen.FkMu()
		if a, b := Decide(2, gt, mu, g), DecideNoUnaryPruning(2, gt, mu, g); a != b {
			t.Fatalf("F_%d clique child: pruned=%v unpruned=%v", k, a, b)
		}
	}
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 120; trial++ {
		pat := randPattern(rng, 2+rng.Intn(3), 2+rng.Intn(4))
		g := randGraphData(rng, 4, 9)
		// Add a unary constraint: a triple with one variable and
		// constants, to exercise the pruning path.
		pat = pat.Union(hom.NewTGraph(rdf.T(rdf.Var("v0"), rdf.IRI("p"), rdf.IRI("d0"))))
		gt := hom.NewGTGraph(pat, nil)
		a := Decide(2, gt, rdf.NewMapping(), g)
		b := DecideNoUnaryPruning(2, gt, rdf.NewMapping(), g)
		if a != b {
			t.Fatalf("trial %d: pruned=%v unpruned=%v\npat=%s\nG=%s",
				trial, a, b, pat, rdf.FormatGraph(g))
		}
	}
}

// Distinguished variables + µ: the game with all variables
// distinguished degenerates to a ground check (equation (1)).
func TestQuickAllDistinguished(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 100; trial++ {
		pat := randPattern(rng, 2, 2)
		g := randGraphData(rng, 3, 6)
		x := pat.Vars()
		gt := hom.NewGTGraph(pat, x)
		mu := rdf.NewMapping()
		dom := g.Dom()
		if len(dom) == 0 {
			continue
		}
		for _, v := range x {
			mu[v.Value] = dom[rng.Intn(len(dom))]
		}
		want := true
		for _, tr := range pat {
			img := mu.Apply(tr)
			if !img.Ground() || !g.Contains(img) {
				want = false
				break
			}
		}
		if got := Decide(2, gt, mu, g); got != want {
			t.Fatalf("trial %d: ground game %v, want %v", trial, got, want)
		}
	}
}

// Missing µ bindings for distinguished variables fail closed.
func TestDecideMissingMu(t *testing.T) {
	pat := hom.NewTGraph(rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y")))
	gt := hom.NewGTGraph(pat, []rdf.Term{rdf.Var("x")})
	g := rdf.GraphOf(rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")))
	if Decide(2, gt, rdf.NewMapping(), g) {
		t.Fatal("missing distinguished binding must fail")
	}
}

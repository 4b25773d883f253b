package core_test

import (
	"math/rand"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Semantic laws of well-designed evaluation, verified on random
// instances:
//
//  1. For UNION-free well-designed patterns, solutions are pairwise
//     ⊑-incomparable (each is a maximal partial match) — Pérez et al.
//  2. Every solution binds all certain variables and only possible
//     variables.
//  3. Solutions restricted to the root variables are homomorphisms of
//     the root pattern.

func TestQuickSolutionsPairwiseIncomparable(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	used := 0
	for tries := 0; used < 80 && tries < 6000; tries++ {
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		tree, err := ptree.FromPattern(p)
		if err != nil {
			t.Fatal(err)
		}
		g := randData(rng)
		sols := core.Enumerate(tree, g)
		if !ptree.PairwiseIncomparable(sols) {
			t.Fatalf("comparable solutions for %s:\n%v", p, sols.Slice())
		}
	}
	if used < 40 {
		t.Fatalf("generator too weak: %d", used)
	}
}

func TestQuickSolutionsBindCertainVars(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	used := 0
	for tries := 0; used < 80 && tries < 6000; tries++ {
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		tree, err := ptree.FromPattern(p)
		if err != nil {
			t.Fatal(err)
		}
		g := randData(rng)
		certain := ptree.CertainVars(tree)
		possible := map[string]bool{}
		for _, v := range ptree.PossibleVars(tree) {
			possible[v.Value] = true
		}
		for _, mu := range core.Enumerate(tree, g).Slice() {
			for _, v := range certain {
				if !mu.Defined(v) {
					t.Fatalf("%s: solution %s misses certain var %s", p, mu, v)
				}
			}
			for v := range mu {
				if !possible[v] {
					t.Fatalf("%s: solution %s binds impossible var ?%s", p, mu, v)
				}
			}
			// The restriction to the root pattern is a homomorphism.
			for _, tr := range tree.Root.Pattern {
				img := mu.Apply(tr)
				if !img.Ground() || !g.Contains(img) {
					t.Fatalf("%s: solution %s does not match the root", p, mu)
				}
			}
		}
	}
	if used < 40 {
		t.Fatalf("generator too weak: %d", used)
	}
}

// Deeper random patterns (depth 4) still cross-validate across all
// four evaluators; this stresses NR normalisation with longer OPT
// chains than the depth-3 generator. The OPTIONAL-heavy application
// workloads of experiment M1 run first, with their solution counts.
func TestCrossValidateDeepPatterns(t *testing.T) {
	crossValidate := func(p sparql.Pattern, f ptree.Forest, g *rdf.Graph) int {
		ref := sparql.Eval(p, g)
		hashRef := sparql.EvalHashJoin(p, g)
		enum := core.EnumerateForest(f, g)
		topdown := core.EnumerateTopDownForest(f, g)
		if ref.Len() != enum.Len() || ref.Len() != topdown.Len() || ref.Len() != hashRef.Len() {
			t.Fatalf("%s: sizes ref=%d hash=%d enum=%d topdown=%d",
				p, ref.Len(), hashRef.Len(), enum.Len(), topdown.Len())
		}
		for _, mu := range ref.Slice() {
			if !enum.Contains(mu) || !topdown.Contains(mu) || !hashRef.Contains(mu) {
				t.Fatalf("%s: missing %s somewhere", p, mu)
			}
		}
		return ref.Len()
	}
	for _, w := range []struct {
		name string
		f    ptree.Forest
		g    *rdf.Graph
		want int
	}{
		{"social/60", ptree.MustWDPF(sparql.MustParse(
			`(((?p knows ?q) OPT (?p worksAt ?org)) OPT (?q email ?m))`)), gen.SocialNetwork(60, 1), 175},
		{"star/6arms/50items", ptree.Forest{gen.OptStar(6)}, gen.ItemCatalog(50, 6, 2), 50},
		{"chain/depth6", ptree.Forest{gen.OptChain(6)}, gen.PathData(40, 30, 3), 1161},
	} {
		if got := crossValidate(ptree.ForestToPattern(w.f), w.f, w.g); got != w.want {
			t.Fatalf("%s: %d solutions, want %d", w.name, got, w.want)
		}
	}
	rng := rand.New(rand.NewSource(151))
	used := 0
	for tries := 0; used < 25 && tries < 20000; tries++ {
		p := randPattern(rng, 4)
		if !sparql.IsWellDesigned(p) || sparql.Size(p) < 4 {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		crossValidate(p, f, randData(rng))
	}
	if used < 12 {
		t.Fatalf("generator too weak: %d", used)
	}
}

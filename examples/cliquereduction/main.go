// Clique reduction: Theorem 2 run forwards. The program builds random
// host graphs H, compiles each (H, k) p-CLIQUE instance into a
// co-wdEVAL instance (query P from the unbounded-width grid family,
// data G = frozen Lemma-2 structure B, mapping µ), decides it through
// the prepared-query engine, and checks the verdict against a direct
// clique search — demonstrating that evaluation of
// unbounded-domination-width classes embeds W[1]-hard problems.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"wdsparql"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/reduction"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2018))
	fmt.Println("p-CLIQUE through co-wdEVAL (Section 4 reduction)")
	fmt.Println("k   |V(H)|  |E(H)|  |G|     clique-via-eval  direct  agree")
	for _, k := range []int{2, 3} {
		for _, n := range []int{5, 8, 11} {
			h := graphalg.NewUGraph(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 0.45 {
						h.AddEdge(i, j)
					}
				}
			}
			in, err := reduction.New(k, h)
			if err != nil {
				log.Fatal(err)
			}
			// Theorem 2: H has a k-clique iff µ ∉ ⟦P⟧G. The instance's
			// query is a forest, so it enters the engine via
			// PrepareForest; Ask runs the engine's wdEVAL algorithm.
			q := wdsparql.NewEngine(in.G).PrepareForest(in.Forest)
			member, err := q.Ask(ctx, in.Mu)
			if err != nil {
				log.Fatal(err)
			}
			viaEval := !member
			direct := graphalg.HasClique(h, k)
			fmt.Printf("%-3d %-7d %-7d %-7d %-16v %-7v %v\n",
				k, n, h.EdgeCount(), in.G.Len(), viaEval, direct, viaEval == direct)
			if viaEval != direct {
				log.Fatal("reduction disagrees with direct clique search")
			}
		}
	}

	fmt.Println()
	fmt.Println("Anatomy of one instance (k=3, H = triangle plus pendant):")
	h := graphalg.NewUGraph(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(0, 2)
	h.AddEdge(2, 3)
	in, err := reduction.New(3, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  query: %d tree(s); wide t-graph S has %d triples over %d variables\n",
		len(in.Forest), len(in.S.S), len(in.S.S.Vars()))
	fmt.Printf("  Lemma-2 structure B: %d triples; frozen data G: %d triples\n",
		len(in.B.S), in.G.Len())
	homHolds, clique := in.HomAgreesWithClique()
	fmt.Printf("  (S,X)→(B,X): %v; H has 3-clique: %v (Lemma 2 item 3)\n", homHolds, clique)
	q := wdsparql.NewEngine(in.G).PrepareForest(in.Forest)
	member, err := q.Ask(ctx, in.Mu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  µ ∉ ⟦P⟧G: %v (Theorem 2: equivalent to the clique)\n", !member)
}

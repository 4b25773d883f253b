package reduction

import (
	"math/rand"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
)

func randomHost(rng *rand.Rand, n int, p float64) *graphalg.UGraph {
	g := graphalg.NewUGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Lemma 2, item 3: H has a k-clique ⟺ (S, X) → (B, X), checked on
// randomized hosts for k = 2, 3.
func TestLemma2Item3Random(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{2, 3} {
		for trial := 0; trial < 12; trial++ {
			n := 4 + rng.Intn(3)
			h := randomHost(rng, n, 0.35+0.3*rng.Float64())
			in, err := New(k, h)
			if err != nil {
				t.Fatal(err)
			}
			homHolds, clique := in.HomAgreesWithClique()
			if homHolds != clique {
				t.Fatalf("k=%d trial=%d n=%d: hom=%v clique=%v\nH edges: %v",
					k, trial, n, homHolds, clique, h.Edges())
			}
		}
	}
}

// Deterministic corner cases of Lemma 2.
func TestLemma2Corners(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		build func() *graphalg.UGraph
		want  bool
	}{
		{"k2-no-edges", 2, func() *graphalg.UGraph { return graphalg.NewUGraph(4) }, false},
		{"k2-one-edge", 2, func() *graphalg.UGraph {
			g := graphalg.NewUGraph(3)
			g.AddEdge(0, 1)
			return g
		}, true},
		{"k3-triangle-free", 3, func() *graphalg.UGraph { return graphalg.Grid(3, 3) }, false},
		{"k3-triangle", 3, func() *graphalg.UGraph {
			g := graphalg.Grid(2, 2)
			g.AddEdge(0, 3)
			return g
		}, true},
		{"k4-k4", 4, func() *graphalg.UGraph { return graphalg.Clique(4) }, true},
		{"k4-turan", 4, func() *graphalg.UGraph {
			// Complete 3-partite graph on 6 vertices: no K4.
			g := graphalg.NewUGraph(6)
			for i := 0; i < 6; i++ {
				for j := i + 1; j < 6; j++ {
					if i%3 != j%3 {
						g.AddEdge(i, j)
					}
				}
			}
			return g
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.k >= 4 && testing.Short() {
				// The k=4 refutation is the genuinely W[1]-hard case
				// (tens of seconds); exercised in full runs only.
				t.Skip("skipping k=4 reduction in -short mode")
			}
			h := tc.build()
			if got := graphalg.HasClique(h, tc.k); got != tc.want {
				t.Fatalf("HasClique oracle: got %v, want %v", got, tc.want)
			}
			in, err := New(tc.k, h)
			if err != nil {
				t.Fatal(err)
			}
			homHolds, _ := in.HomAgreesWithClique()
			if homHolds != tc.want {
				t.Fatalf("hom test: got %v, want %v", homHolds, tc.want)
			}
		})
	}
}

// The clique-host variant (non-singleton γ parts) must agree with the
// clique oracle as well; k = 2 keeps B small (m = 3 clique child).
func TestCliqueHostVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(3)
		h := randomHost(rng, n, 0.3+0.4*rng.Float64())
		in, err := NewCliqueHost(2, h)
		if err != nil {
			t.Fatal(err)
		}
		homHolds, clique := in.HomAgreesWithClique()
		if homHolds != clique {
			t.Fatalf("trial %d: hom=%v clique=%v edges=%v", trial, homHolds, clique, h.Edges())
		}
		if got := in.SolveCliqueViaEval(); got != clique {
			t.Fatalf("trial %d: eval=%v clique=%v", trial, got, clique)
		}
	}
}

// The k=3 clique-host instance is large (K_10 child); run one positive
// and one negative case.
func TestCliqueHostVariantK3(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	tri := graphalg.NewUGraph(4)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	in, err := NewCliqueHost(3, tri)
	if err != nil {
		t.Fatal(err)
	}
	if homHolds, _ := in.HomAgreesWithClique(); !homHolds {
		t.Fatal("triangle should embed")
	}
	pathH := graphalg.Path(4)
	in2, err := NewCliqueHost(3, pathH)
	if err != nil {
		t.Fatal(err)
	}
	if homHolds, _ := in2.HomAgreesWithClique(); homHolds {
		t.Fatal("path has no triangle")
	}
}

// Item 2 of Lemma 2: (B, X) → (S, X) always holds (via Π).
func TestLemma2Item2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		h := randomHost(rng, 5, 0.5)
		if h.EdgeCount() == 0 {
			continue
		}
		in, err := New(2, h)
		if err != nil {
			t.Fatal(err)
		}
		if !hom.Hom(in.B, in.S) {
			t.Fatalf("trial %d: (B,X) must map into (S,X)", trial)
		}
	}
}

// Item 1 of Lemma 2: triples of S over distinguished variables only
// appear in B.
func TestLemma2Item1(t *testing.T) {
	h := graphalg.Clique(4)
	in, err := New(2, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, tri := range in.S.S {
		allX := true
		for _, v := range tri.Vars() {
			if !in.S.IsDistinguished(v) {
				allX = false
			}
		}
		if allX && !in.B.S.Contains(tri) {
			t.Fatalf("triple %s over X missing from B", tri)
		}
	}
}

// The S of the reduction must be a core (the construction relies on
// C = S for the grid family).
func TestReductionSIsCore(t *testing.T) {
	for _, k := range []int{2, 3} {
		in, err := New(k, graphalg.Clique(k+1))
		if err != nil {
			t.Fatal(err)
		}
		if !hom.IsCore(in.S) {
			t.Fatalf("k=%d: grid query t-graph should be a core", k)
		}
	}
}

// End-to-end Theorem 2 reduction: clique solving through co-wdEVAL
// matches the direct clique oracle; also cross-check the evaluator
// against Lemma-1 enumeration on one small instance.
func TestSolveCliqueViaEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{2, 3} {
		for trial := 0; trial < 8; trial++ {
			h := randomHost(rng, 4+rng.Intn(2), 0.5)
			got, err := SolveClique(k, h)
			if err != nil {
				t.Fatal(err)
			}
			if want := graphalg.HasClique(h, k); got != want {
				t.Fatalf("k=%d trial=%d: co-wdEVAL says %v, oracle %v", k, trial, got, want)
			}
		}
	}
}

// µ ∈ ⟦P⟧G decided by the natural algorithm agrees with Lemma-1 enumeration on a
// small reduction instance (the enumeration is exponential in |B|, so
// keep H tiny).
func TestReductionEvalAgainstEnumeration(t *testing.T) {
	h := graphalg.NewUGraph(3)
	h.AddEdge(0, 1)
	in, err := New(2, h)
	if err != nil {
		t.Fatal(err)
	}
	want := core.EnumerateForest(in.Forest, in.G).Contains(in.Mu)
	if got := core.Eval(core.AlgNaive, 0, in.Forest, in.G, in.Mu); got != want {
		t.Fatalf("Eval(naive)=%v, enumeration=%v", got, want)
	}
}

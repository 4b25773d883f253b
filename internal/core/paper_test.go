package core_test

import (
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// These tests machine-check the paper's worked examples: the width
// claims of Example 3 (Figure 1), the GtG structure of Example 4
// (Figures 2–3), the domination width claim of Example 5, and the
// branch-treewidth family of Section 3.2. They are the ground truth
// for the reproduction.

// Example 3: (S, X) is a core with ctw(S, X) = k − 1; (S', X) has
// tw(S', X) = k − 1 but ctw(S', X) = 1 (experiment E1).
func TestExample3Widths(t *testing.T) {
	for k := 2; k <= 7; k++ {
		s := gen.ExampleS(k)
		if !hom.IsCore(s) {
			t.Fatalf("k=%d: (S,X) should be a core", k)
		}
		if got := core.CTW(s); got != k-1 {
			t.Fatalf("k=%d: ctw(S,X)=%d, want %d", k, got, k-1)
		}
		sp := gen.ExampleSPrime(k)
		if got := core.TW(sp); got != k-1 {
			t.Fatalf("k=%d: tw(S',X)=%d, want %d", k, got, k-1)
		}
		if got := core.CTW(sp); got != 1 {
			t.Fatalf("k=%d: ctw(S',X)=%d, want 1", k, got)
		}
	}
}

// Example 3's core of (S', X) is C' = {(?z,q,?x), (?x,p,?y),
// (?y,r,?o), (?o,r,?o)} — four triples.
func TestExample3CoreShape(t *testing.T) {
	c := hom.Core(gen.ExampleSPrime(4))
	if len(c.S) != 4 {
		t.Fatalf("core of (S',X) should have 4 triples, got %s", c.S)
	}
}

// Example 4: the subtrees of F_k with non-empty GtG and their GtG
// sizes: GtG(T1[r1]) has the two elements S_∆1, S_∆2; GtG(T1[r1,n11])
// and GtG(T1[r1,n12]) are singletons.
func TestExample4GtG(t *testing.T) {
	k := 3
	f := gen.Fk(k)
	nonEmpty := map[string]int{}
	for _, fs := range ptree.EnumerateForestSubtrees(f) {
		gtg := ptree.GtG(fs)
		if len(gtg) > 0 {
			key := subtreeKey(fs)
			nonEmpty[key] = len(gtg)
		}
	}
	// Expected: T1[r1] (2 elements), T1[r1,n11] (1), T1[r1,n12] (1),
	// T2[r2] (2, same as T1[r1]), T3[r3] (1, same as T1[r1,n11]).
	want := map[string]int{
		"t0:{0}":   2,
		"t0:{0,2}": 1, // r1 + n11 (child order: n12 sorts before n11)
		"t0:{0,1}": 1, // r1 + n12
		"t1:{0}":   2,
		"t2:{0}":   1,
	}
	if len(nonEmpty) != len(want) {
		t.Fatalf("non-empty GtG subtrees: got %v, want %v", nonEmpty, want)
	}
	for key, size := range want {
		if nonEmpty[key] != size {
			t.Fatalf("GtG size at %s: got %d, want %d (all: %v)", key, nonEmpty[key], size, nonEmpty)
		}
	}
}

func subtreeKey(fs ptree.ForestSubtree) string {
	return "t" + string(rune('0'+fs.TreeIndex)) + ":" + fs.Subtree.String()
}

// Example 5: dw(F_k) = 1 for every k ≥ 2, although F_k is not locally
// tractable (local width = k − 1 due to node n12); GtG(T1[r1]) has two
// elements at every k (experiment E2).
func TestExample5DominationWidth(t *testing.T) {
	for k := 2; k <= 5; k++ {
		f := gen.Fk(k)
		if got := core.DominationWidth(f); got != 1 {
			t.Fatalf("k=%d: dw(F_k)=%d, want 1", k, got)
		}
		if got := core.LocalWidth(f); got != max(1, k-1) {
			t.Fatalf("k=%d: local width=%d, want %d", k, got, max(1, k-1))
		}
		root := ptree.ForestSubtree{Forest: f, TreeIndex: 0, Subtree: ptree.NewSubtree(f[0], f[0].Root.ID)}
		if got := len(ptree.GtG(root)); got != 2 {
			t.Fatalf("k=%d: |GtG(T1[r1])|=%d, want 2", k, got)
		}
	}
}

// Section 3.2: bw(T'_k) = 1 = dw(T'_k) for every k, while
// ctw(pat(n_k), {?y}) = k − 1, so the family has bounded branch
// treewidth without being locally tractable; on Turán data the natural
// algorithm and the 1-pebble algorithm decide {?y ↦ b} alike
// (experiment E4).
func TestSection32BranchTreewidth(t *testing.T) {
	for k := 2; k <= 7; k++ {
		tk := gen.TkPrime(k)
		if got := core.BranchTreewidth(tk); got != 1 {
			t.Fatalf("k=%d: bw(T'_k)=%d, want 1", k, got)
		}
		f := ptree.Forest{tk}
		if got := core.DominationWidth(f); got != 1 {
			t.Fatalf("k=%d: dw(T'_k)=%d, want 1", k, got)
		}
		if got := core.LocalWidth(f); got != max(1, k-1) {
			t.Fatalf("k=%d: local width=%d, want %d", k, got, k-1)
		}
		g, mu := gen.TkPrimeData(24, k), rdf.Mapping{"y": "b"}
		if naive, peb := core.Eval(core.AlgNaive, 0, f, g, mu), core.Eval(core.AlgPebble, 1, f, g, mu); naive != peb {
			t.Fatalf("k=%d: naive says %v, pebble(1) %v", k, naive, peb)
		}
	}
}

// Proposition 5: dw(P) = bw(P) for UNION-free patterns; checked on the
// T'_k family and on the unbounded-width clique family.
func TestProposition5(t *testing.T) {
	for k := 2; k <= 4; k++ {
		tk := gen.TkPrime(k)
		dw := core.DominationWidth(ptree.Forest{tk})
		bw := core.BranchTreewidth(tk)
		if dw != bw {
			t.Fatalf("T'_%d: dw=%d bw=%d, Proposition 5 violated", k, dw, bw)
		}
		ck := gen.CliqueChild(k)
		dw = core.DominationWidth(ptree.Forest{ck})
		bw = core.BranchTreewidth(ck)
		if dw != bw {
			t.Fatalf("CliqueChild(%d): dw=%d bw=%d, Proposition 5 violated", k, dw, bw)
		}
		if want := max(1, k-1); dw != want {
			t.Fatalf("CliqueChild(%d): dw=%d, want %d", k, dw, want)
		}
	}
}

// The GridChild family has dw = bw = min(rows, cols) (grid treewidth),
// confirming unboundedness along both dimensions.
func TestGridChildWidth(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {2, 3}, {3, 3}} {
		g := gen.GridChild(dims[0], dims[1])
		want := dims[0]
		if dims[1] < want {
			want = dims[1]
		}
		if got := core.BranchTreewidth(g); got != want {
			t.Fatalf("GridChild(%d,%d): bw=%d, want %d", dims[0], dims[1], got, want)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

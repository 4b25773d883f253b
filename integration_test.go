package wdsparql

import (
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/ptree"
	"wdsparql/internal/reduction"
)

// End-to-end integration tests following the paper's own narrative,
// exercised through the public API plus the gen families (and, for
// Theorem 2, the reduction's instances).

// Example 1 and Example 2 of the paper: P1 is well-designed, P2 is
// not; P = P1 UNION (...) translates to the two-tree forest of
// Example 2.
func TestPaperExamples1And2(t *testing.T) {
	p1 := MustParsePattern(
		`(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))`)
	if !IsWellDesigned(p1) {
		t.Fatal("Example 1: P1 is well-designed")
	}
	p2 := MustParsePattern(
		`(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2)))`)
	if IsWellDesigned(p2) {
		t.Fatal("Example 1: P2 is not well-designed")
	}
	p := MustParsePattern(`
		(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))
		UNION
		((?x, p, ?y) OPT ((?z, q, ?x) AND (?w, q, ?z)))`)
	f, err := ToForest(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Fatalf("Example 2: wdpf(P) = {T1, T2}, got %d trees", len(f))
	}
	if f[0].Size() != 3 || f[1].Size() != 2 {
		t.Fatalf("Example 2 tree shapes: %d and %d nodes", f[0].Size(), f[1].Size())
	}
}

// The full Theorem 1 / Theorem 3 story on F_3: dw = 1, the pebble
// algorithm with k = dw decides correctly on data engineered so the
// naive algorithm must refute a 3-clique, and both answers match the
// ground-truth enumeration.
func TestPaperFrontierStory(t *testing.T) {
	k := 3
	f := gen.Fk(k)
	if dw := core.DominationWidth(f); dw != 1 {
		t.Fatalf("dw(F_3)=%d", dw)
	}
	if lw := core.LocalWidth(f); lw != k-1 {
		t.Fatalf("local width %d", lw)
	}
	for _, withQ := range []bool{false, true} {
		for _, withClique := range []bool{false, true} {
			g := gen.FkData(k, 12, withQ, withClique)
			mu := gen.FkMu()
			truth := core.EnumerateForest(f, g).Contains(mu)
			if got := askWith(t, AlgNaive, 1, f, g, mu); got != truth {
				t.Fatalf("naive q=%v clique=%v: %v vs %v", withQ, withClique, got, truth)
			}
			if got := askWith(t, AlgPebble, 1, f, g, mu); got != truth {
				t.Fatalf("pebble q=%v clique=%v: %v vs %v", withQ, withClique, got, truth)
			}
		}
	}
}

// The UNION-free dichotomy (Corollary 1): for T'_4, bw = dw = 1 and
// evaluation is exact with 2 pebbles, while the clique-child family
// has bw = k−1 and the pebble algorithm remains sound on it.
func TestPaperCorollary1Story(t *testing.T) {
	tk := gen.TkPrime(4)
	f := ptree.Forest{tk}
	bw := core.BranchTreewidth(tk)
	dw := core.DominationWidth(f)
	if bw != 1 || dw != 1 {
		t.Fatalf("bw=%d dw=%d", bw, dw)
	}
	g := gen.TkPrimeData(16, 4)
	mu := Mapping{"y": "b"}
	truth := core.EnumerateForest(f, g).Contains(mu)
	if got := askWith(t, AlgPebble, dw, f, g, mu); got != truth {
		t.Fatalf("pebble on T'_4: %v vs %v", got, truth)
	}

	ck := gen.CliqueChild(4)
	cf := ptree.Forest{ck}
	if w := core.BranchTreewidth(ck); w != 3 {
		t.Fatalf("bw(CliqueChild_4)=%d", w)
	}
	// Soundness for any k: on data where the true answer is negative
	// the pebble algorithm must reject even with k below the width.
	cg := gen.Turan(12, 4, "e")
	cg.AddTriple("anchor", "p0", "anchor")
	for i := 0; i < 12; i++ {
		cg.AddTriple("anchor", "e0", "n0")
	}
	cmu := Mapping{"u": "anchor"}
	truth = core.EnumerateForest(cf, cg).Contains(cmu)
	for kk := 1; kk <= 3; kk++ {
		got := askWith(t, AlgPebble, kk, cf, cg, cmu)
		if truth && !got {
			t.Fatalf("pebble k=%d rejected a member", kk)
		}
		if kk >= 3 && got != truth {
			t.Fatalf("pebble k=%d (≥ dw) must be exact: %v vs %v", kk, got, truth)
		}
	}
}

// Theorem 2 end-to-end through the engine: the Section 4 reduction
// compiles a p-CLIQUE instance (H, 3) into co-wdEVAL, and the engine's
// Ask — the default and the natural algorithm — decides µ ∉ ⟦P⟧G
// exactly when H has a triangle.
func TestPaperTheorem2Story(t *testing.T) {
	fourCycle := func() *graphalg.UGraph {
		h := graphalg.NewUGraph(5)
		h.AddEdge(0, 1)
		h.AddEdge(1, 2)
		h.AddEdge(2, 3)
		h.AddEdge(3, 0)
		return h
	}
	chorded := fourCycle()
	chorded.AddEdge(0, 2)
	for _, c := range []struct {
		name     string
		h        *graphalg.UGraph
		triangle bool
	}{{"4-cycle with chord", chorded, true}, {"4-cycle", fourCycle(), false}} {
		in, err := reduction.New(3, c.h)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgAuto, AlgNaive} {
			if member := askWith(t, alg, 0, in.Forest, in.G, in.Mu); member == c.triangle {
				t.Fatalf("%s, %s: µ ∈ ⟦P⟧G is %v, want %v", c.name, alg, member, !c.triangle)
			}
		}
	}
}

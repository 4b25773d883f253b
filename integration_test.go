package wdsparql

import (
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/ptree"
)

// End-to-end integration tests following the paper's own narrative,
// exercised exclusively through public API plus the gen families.

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

// Theorem 2 end-to-end through the public API.
func TestPaperTheorem2Story(t *testing.T) {
	h := NewUGraph(5)
	// 4-cycle plus chord: contains a triangle.
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 0)
	h.AddEdge(0, 2)
	got, err := SolveCliqueViaReduction(3, h)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("triangle present")
	}
	// Remove the chord: 4-cycle is triangle-free.
	h2 := NewUGraph(5)
	h2.AddEdge(0, 1)
	h2.AddEdge(1, 2)
	h2.AddEdge(2, 3)
	h2.AddEdge(3, 0)
	got, err = SolveCliqueViaReduction(3, h2)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("4-cycle has no triangle")
	}
}

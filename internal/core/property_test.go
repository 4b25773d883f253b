package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Randomized verification of Proposition 5 — dw(P) = bw(P) for
// UNION-free well-designed patterns — on generated patterns, plus
// structural laws of the width measures.

func TestQuickProposition5Random(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	used := 0
	for tries := 0; used < 60 && tries < 6000; tries++ {
		p := randPattern(rng, 2+rng.Intn(2))
		if !sparql.IsWellDesigned(p) {
			continue
		}
		tree, err := ptree.FromPattern(p)
		if err != nil {
			t.Fatalf("translate %s: %v", p, err)
		}
		used++
		dw := core.DominationWidth(ptree.Forest{tree})
		bw := core.BranchTreewidth(tree)
		if dw != bw {
			t.Fatalf("Proposition 5 violated on %s:\ndw=%d bw=%d\ntree:\n%s", p, dw, bw, tree)
		}
	}
	if used < 30 {
		t.Fatalf("generator too weak: %d cases", used)
	}
}

// dw of a forest never exceeds the max bw of its trees (domination can
// only help), and all widths are ≥ 1.
func TestQuickForestWidthLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	used := 0
	for tries := 0; used < 40 && tries < 6000; tries++ {
		p1 := randPattern(rng, 2)
		p2 := randPattern(rng, 2)
		u := sparql.Union(p1, p2)
		if !sparql.IsWellDesigned(u) {
			continue
		}
		f, err := ptree.WDPF(u)
		if err != nil {
			t.Fatal(err)
		}
		used++
		dw := core.DominationWidth(f)
		maxBW := 1
		for _, tr := range f {
			if b := core.BranchTreewidth(tr); b > maxBW {
				maxBW = b
			}
		}
		if dw < 1 || dw > maxBW {
			t.Fatalf("dw=%d outside [1, maxBW=%d] for %s", dw, maxBW, u)
		}
		if lw := core.LocalWidth(f); lw < 1 {
			t.Fatalf("local width %d < 1", lw)
		}
	}
	if used < 20 {
		t.Fatalf("generator too weak: %d cases", used)
	}
}

// TW/CTW laws: ctw ≤ tw, both ≥ 1; CTW invariant under adding a
// dominated (foldable) part.
func TestQuickWidthLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 150; trial++ {
		nvars := 2 + rng.Intn(4)
		var ts []rdf.Triple
		vt := func() rdf.Term { return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars))) }
		for i := 0; i < 2+rng.Intn(4); i++ {
			ts = append(ts, rdf.T(vt(), rdf.IRI("p"), vt()))
		}
		var x []rdf.Term
		if rng.Intn(2) == 0 {
			x = append(x, rdf.Var("v0"))
		}
		g := hom.NewGTGraph(hom.NewTGraph(ts...), x)
		tw := core.TW(g)
		ctw := core.CTW(g)
		if ctw > tw || ctw < 1 || tw < 1 {
			t.Fatalf("trial %d: tw=%d ctw=%d for %s", trial, tw, ctw, g)
		}
	}
}

// Pebble-algorithm soundness (one half of Theorem 1 that holds without any
// width assumption): whenever the true answer is "no", the pebble
// algorithm answers "no" for every k.
func TestPebbleSoundnessAnyK(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	used := 0
	for tries := 0; used < 60 && tries < 4000; tries++ {
		p := randPattern(rng, 2)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		g := randData(rng)
		truth := core.EnumerateForest(f, g)
		for _, mu := range []rdf.Mapping{{"x": "a"}, {"x": "a", "y": "b"}, {"y": "c", "z": "d"}} {
			if truth.Contains(mu) {
				continue
			}
			for k := 1; k <= 3; k++ {
				if core.Eval(core.AlgPebble, k, f, g, mu) {
					t.Fatalf("unsound accept (k=%d) of %s on %s", k, mu, p)
				}
			}
		}
	}
}

// FindMatchedSubtree: the witness must be matched by µ and be the
// unique subtree with vars = dom(µ).
func TestFindMatchedSubtree(t *testing.T) {
	f := gen.Fk(3)
	g := gen.FkData(3, 8, true, false)
	mu := gen.FkMu()
	s, ok := core.FindMatchedSubtree(f[0], g, mu)
	if !ok {
		t.Fatal("witness must exist")
	}
	if s.Size() != 1 {
		t.Fatalf("witness is the root only: %v", s)
	}
	// A mapping with an unmatchable binding has no witness.
	if _, ok := core.FindMatchedSubtree(f[0], g, rdf.Mapping{"x": "a", "y": "zzz"}); ok {
		t.Fatal("unmatchable µ must have no witness")
	}
	// dom(µ) not equal to any subtree's vars: no witness.
	if _, ok := core.FindMatchedSubtree(f[0], g, rdf.Mapping{"x": "a"}); ok {
		t.Fatal("partial-domain µ must have no witness")
	}
}

// The identity that makes a child's node program its extension test:
// for every subtree T of a well-designed tree and every child n of T,
// vars(n) ∩ vars(T) = vars(n) ∩ vars(ancestors of n) — the variables
// the enumerator binds on entry to n.
func TestQuickChildTestIsEntryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	vars := []rdf.Term{rdf.Var("x"), rdf.Var("y"), rdf.Var("z"), rdf.Var("w"), rdf.Var("u"), rdf.Var("v")}
	checked := 0
	for trial := 0; trial < 300; trial++ {
		p, ok := gen.RandomWDPattern(rng, gen.PatternOpts{Vars: vars, Depth: 3 + trial%2, Union: trial%3 == 0})
		if !ok {
			t.Fatal("generator exhausted")
		}
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatalf("translate %s: %v", p, err)
		}
		for _, tree := range f {
			for _, s := range ptree.EnumerateSubtrees(tree) {
				inT := map[rdf.Term]bool{}
				for _, v := range s.Vars() {
					inT[v] = true
				}
				for _, n := range s.Children() {
					entry := map[rdf.Term]bool{}
					for a := n.Parent; a != nil; a = a.Parent {
						for _, v := range a.Vars() {
							entry[v] = true
						}
					}
					for _, v := range n.Vars() {
						if inT[v] != entry[v] {
							t.Fatalf("%s: child %v of subtree %v: ?%s in vars(T) = %v, among its ancestors' = %v",
								p, n.Pattern, s.Vars(), v.Value, inT[v], entry[v])
						}
					}
					checked++
				}
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d (subtree, child) pairs checked", checked)
	}
}

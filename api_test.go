package wdsparql

import (
	"context"
	"testing"
)

// Tests of the public API surface: everything a downstream user
// touches must work through the root package alone.

// askWith decides µ ∈ ⟦F⟧G on a fresh engine running alg with pebble
// bound k.
func askWith(t *testing.T, alg Algorithm, k int, f Forest, g *Graph, mu Mapping) bool {
	t.Helper()
	ok, err := NewEngine(g, WithAlgorithm(alg), WithPebbleK(k)).PrepareForest(f).Ask(context.Background(), mu)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestPublicQuickstartFlow(t *testing.T) {
	pattern := MustParsePattern(`((?p knows ?q) OPT (?p email ?m))`)
	if !IsWellDesigned(pattern) {
		t.Fatal("well-designed")
	}
	data := MustParseGraph(`
alice knows bob .
alice email alice@example.org .
bob knows carol .
`)
	q, err := NewEngine(data).Prepare(pattern)
	if err != nil {
		t.Fatal(err)
	}
	solutions, err := q.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if solutions.Len() != 2 {
		t.Fatalf("solutions: %v", solutions.Slice())
	}
	if !solutions.Contains(Mapping{"p": "alice", "q": "bob", "m": "alice@example.org"}) {
		t.Fatal("missing extended solution")
	}
	if !solutions.Contains(Mapping{"p": "bob", "q": "carol"}) {
		t.Fatal("missing bare solution")
	}
	// Cross-check with the compositional semantics.
	ref := EvalCompositional(pattern, data)
	if ref.Len() != solutions.Len() {
		t.Fatal("evaluators disagree")
	}
}

func TestPublicEvaluateBothAlgorithms(t *testing.T) {
	pattern := MustParsePattern(`((?x p ?y) OPT (?y q ?z))`)
	data := MustParseGraph("a p b .\nb q c .\nd p e .\n")
	q, err := NewEngine(nil).Prepare(pattern)
	if err != nil {
		t.Fatal(err)
	}
	dw := q.DominationWidth()
	if dw != 1 {
		t.Fatalf("dw=%d", dw)
	}
	bw, err := q.BranchTreewidth()
	if err != nil {
		t.Fatal(err)
	}
	if bw != dw {
		t.Fatal("Prop 5")
	}
	if lw := q.LocalWidth(); lw != 1 {
		t.Fatalf("local width: %d", lw)
	}
	cases := []struct {
		mu   Mapping
		want bool
	}{
		{Mapping{"x": "a", "y": "b", "z": "c"}, true},
		{Mapping{"x": "a", "y": "b"}, false}, // extends, not maximal
		{Mapping{"x": "d", "y": "e"}, true},  // no q-edge from e
		{Mapping{"x": "zzz", "y": "b"}, false},
	}
	for _, tc := range cases {
		for _, alg := range []Algorithm{AlgNaive, AlgPebble} {
			qa, err := NewEngine(data, WithAlgorithm(alg), WithPebbleK(dw)).Prepare(pattern)
			if err != nil {
				t.Fatal(err)
			}
			got, err := qa.Ask(context.Background(), tc.mu)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("%v(%s)=%v, want %v", alg, tc.mu, got, tc.want)
			}
		}
	}
}

func TestPublicForestAPI(t *testing.T) {
	pattern := MustParsePattern(`(?x p ?y) UNION ((?x q ?y) OPT (?y q ?z))`)
	f, err := ToForest(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Fatalf("forest size: %d", len(f))
	}
	data := MustParseGraph("a q b .\nb q c .\n")
	if !askWith(t, AlgNaive, 1, f, data, Mapping{"x": "a", "y": "b", "z": "c"}) {
		t.Fatal("member expected")
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := ParsePattern("((?x p"); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := ParseGraph("a p"); err == nil {
		t.Fatal("graph parse error expected")
	}
	notWD := MustParsePattern(`(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2)))`)
	if err := CheckWellDesigned(notWD); err == nil {
		t.Fatal("well-designedness violation expected")
	}
	if _, err := NewEngine(NewGraph()).Prepare(notWD); err == nil {
		t.Fatal("Prepare must reject non-well-designed patterns")
	}
	if _, err := ToForest(notWD); err == nil {
		t.Fatal("ToForest must reject non-well-designed patterns")
	}
	if _, _, err := RefuteContainment(notWD, notWD); err == nil {
		t.Fatal("RefuteContainment must reject non-well-designed patterns")
	}
}

func TestPublicCliqueReduction(t *testing.T) {
	h := NewUGraph(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(0, 2)
	got, err := SolveCliqueViaReduction(3, h)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("triangle should be found")
	}
	h2 := NewUGraph(4)
	h2.AddEdge(0, 1)
	h2.AddEdge(1, 2)
	got, err = SolveCliqueViaReduction(3, h2)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("no triangle in a path")
	}
}

func TestPublicCertainVarsAndContainment(t *testing.T) {
	p1 := MustParsePattern(`(?x p ?y)`)
	p2 := MustParsePattern(`((?x p ?y) OPT (?y q ?z))`)
	q2, err := NewEngine(nil).Prepare(p2)
	if err != nil {
		t.Fatal(err)
	}
	if cv := q2.CertainVars(); len(cv) != 2 {
		t.Fatalf("certain vars: %v", cv)
	}
	ce, ok, err := RefuteContainment(p1, p2)
	if err != nil || !ok {
		t.Fatalf("expected counterexample: %v", err)
	}
	if ce.G == nil || len(ce.Mu) == 0 {
		t.Fatal("counterexample must carry a graph and mapping")
	}
	if _, ok, _ := RefuteContainment(p2, p2); ok {
		t.Fatal("self-containment")
	}
}

func TestPublicTermConstructors(t *testing.T) {
	if !Var("?x").IsVar() || Var("x") != Var("?x") {
		t.Fatal("Var normalisation")
	}
	if !IRI("p").IsIRI() {
		t.Fatal("IRI")
	}
}

package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql/internal/rdf"
)

// Property tests validating the solver against a brute-force oracle
// and the core computation against Proposition 1's guarantees.

// bruteEach calls yield with every total assignment vars(pats) → dom(G)
// under which every triple of pats is in g, until yield returns false
// (the mapping is reused: clone to retain). Exponential, only for tiny
// instances.
func bruteEach(pats []rdf.Triple, g *rdf.Graph, yield func(rdf.Mapping) bool) {
	vars := rdf.VarsOf(pats)
	dom := g.Dom()
	assign := rdf.NewMapping()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			for _, p := range pats {
				if !g.Contains(assign.Apply(p)) {
					return true
				}
			}
			return yield(assign)
		}
		for _, d := range dom {
			assign[vars[i].Value] = d
			if !rec(i + 1) {
				return false
			}
		}
		delete(assign, vars[i].Value)
		return true
	}
	rec(0)
}

// bruteExists reports whether bruteEach finds any homomorphism.
func bruteExists(pats []rdf.Triple, g *rdf.Graph) bool {
	found := false
	bruteEach(pats, g, func(rdf.Mapping) bool {
		found = true
		return false
	})
	return found
}

func randTinyInstance(rng *rand.Rand) ([]rdf.Triple, *rdf.Graph) {
	nvars := 1 + rng.Intn(3)
	var pats []rdf.Triple
	term := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return rdf.IRI([]string{"a", "b"}[rng.Intn(2)])
		}
		return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars)))
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		pats = append(pats, rdf.T(term(), rdf.IRI([]string{"p", "q"}[rng.Intn(2)]), term()))
	}
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c"}
	for i := 0; i < 1+rng.Intn(6); i++ {
		g.AddTriple(nodes[rng.Intn(3)], []string{"p", "q"}[rng.Intn(2)], nodes[rng.Intn(3)])
	}
	return pats, g
}

func TestQuickSolverAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		pats, g := randTinyInstance(rng)
		want := bruteExists(pats, g)
		if got := Exists(pats, g); got != want {
			t.Fatalf("trial %d: solver=%v brute=%v\npats=%v\nG=%s",
				trial, got, want, pats, rdf.FormatGraph(g))
		}
		if got := ExistsStaticOrder(pats, g); got != want {
			t.Fatalf("trial %d: static-order solver=%v brute=%v", trial, got, want)
		}
	}
}

// FindAll returns exactly the set of homomorphisms brute force finds,
// each once.
func TestQuickFindAllMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		pats, g := randTinyInstance(rng)
		want := map[string]bool{}
		bruteEach(pats, g, func(m rdf.Mapping) bool {
			want[m.Key()] = true
			return true
		})
		all := FindAll(pats, g, 0)
		seen := map[string]bool{}
		for _, m := range all {
			k := m.Key()
			if !want[k] {
				t.Fatalf("trial %d: returned non-homomorphism %s\npats=%v\nG=%s", trial, m, pats, rdf.FormatGraph(g))
			}
			if seen[k] {
				t.Fatalf("trial %d: duplicate %s", trial, m)
			}
			seen[k] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("trial %d: FindAll found %d of %d homomorphisms\npats=%v\nG=%s",
				trial, len(seen), len(want), pats, rdf.FormatGraph(g))
		}
	}
}

func randTinyGTGraph(rng *rand.Rand) GTGraph {
	nvars := 2 + rng.Intn(4)
	var ts []rdf.Triple
	vt := func() rdf.Term { return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars))) }
	for i := 0; i < 2+rng.Intn(4); i++ {
		ts = append(ts, rdf.T(vt(), rdf.IRI([]string{"p", "q"}[rng.Intn(2)]), vt()))
	}
	var x []rdf.Term
	if rng.Intn(2) == 0 {
		x = append(x, rdf.Var("v0"))
	}
	return NewGTGraph(NewTGraph(ts...), x)
}

// Proposition 1 consequences: Core(g) is a core, hom-equivalent to g,
// idempotent, and a subgraph of g.
func TestQuickCoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		g := randTinyGTGraph(rng)
		c := Core(g)
		if !c.S.SubsetOf(g.S) {
			t.Fatalf("trial %d: core not a subgraph", trial)
		}
		if !IsCore(c) {
			t.Fatalf("trial %d: Core produced a non-core: %s from %s", trial, c, g)
		}
		if !Equivalent(g, c) {
			t.Fatalf("trial %d: core not equivalent: %s vs %s", trial, g, c)
		}
		cc := Core(c)
		if !cc.S.Equal(c.S) {
			t.Fatalf("trial %d: Core not idempotent", trial)
		}
		// Distinguished variables must survive in the core whenever
		// they survive in some triple.
		for _, x := range g.X {
			found := false
			for _, v := range c.S.Vars() {
				if v == x {
					found = true
				}
			}
			if !found {
				// x ∈ vars(S) always (NewGTGraph drops others), and
				// homs fix x, so some triple mentioning x must remain.
				t.Fatalf("trial %d: distinguished %s vanished from core %s", trial, x, c)
			}
		}
	}
}

// Hom is reflexive and transitive (the paper uses transitivity of →
// throughout Section 3).
func TestQuickHomPreorder(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 120; trial++ {
		a := randTinyGTGraph(rng)
		if !Hom(a, a) {
			t.Fatalf("trial %d: → not reflexive on %s", trial, a)
		}
		b := randTinyGTGraph(rng)
		c := randTinyGTGraph(rng)
		// Align distinguished sets: transitivity is only stated for a
		// common X; use none for simplicity.
		a2 := NewGTGraph(a.S, nil)
		b2 := NewGTGraph(b.S, nil)
		c2 := NewGTGraph(c.S, nil)
		if Hom(a2, b2) && Hom(b2, c2) && !Hom(a2, c2) {
			t.Fatalf("trial %d: → not transitive", trial)
		}
	}
}

// The row search with SearchStats attached — how the A1 ablation table
// counts search nodes — agrees with Exists, and counts at least the
// root node unless a constant unknown to G empties the program before
// any search.
func TestCountSearchNodesAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 100; trial++ {
		pats, g := randTinyInstance(rng)
		var stats SearchStats
		layout := rdf.NewSlotLayout()
		s := CompileRowProgram(pats, g, layout).NewSearcher()
		s.Tune(ModeHeuristic, 0, &stats)
		found := !s.Run(layout.NewRow(), func() bool { return false })
		if found != Exists(pats, g) {
			t.Fatalf("trial %d: counted search disagrees with Exists", trial)
		}
		searched := true
		for _, p := range pats {
			for _, term := range p.Terms() {
				if !term.IsVar() && !g.HasIRI(term.Value) {
					searched = false
				}
			}
		}
		if searched && stats.Nodes <= 0 {
			t.Fatalf("trial %d: nonpositive node count %d", trial, stats.Nodes)
		}
		if !searched && (found || stats.Nodes != 0) {
			t.Fatalf("trial %d: unknown constant: found=%v nodes=%d", trial, found, stats.Nodes)
		}
	}
}

// randTinyGTGraphIRI is randTinyGTGraph with IRIs beside the
// variables and a caller-chosen distinguished set.
func randTinyGTGraphIRI(rng *rand.Rand, x []rdf.Term) GTGraph {
	nvars := 2 + rng.Intn(3)
	term := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return rdf.IRI([]string{"a", "b"}[rng.Intn(2)])
		}
		return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars)))
	}
	var ts []rdf.Triple
	for i := 0; i < 1+rng.Intn(4); i++ {
		ts = append(ts, rdf.T(term(), rdf.IRI([]string{"p", "q"}[rng.Intn(2)]), term()))
	}
	return NewGTGraph(NewTGraph(ts...), x)
}

// Hom(a, b) is brute-force homomorphism existence from the frozen
// source into the frozen target, and FindHom's witness maps a.S into
// b.S while fixing a.X — checked on the t-graphs themselves.
func TestQuickHomMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		var x []rdf.Term
		for _, v := range []string{"v0", "v1"} {
			if rng.Intn(2) == 0 {
				x = append(x, rdf.Var(v))
			}
		}
		a, b := randTinyGTGraphIRI(rng, x), randTinyGTGraphIRI(rng, x)
		want := bruteExists(freezeSource(a), Freeze(b.S))
		if got := Hom(a, b); got != want {
			t.Fatalf("trial %d: Hom(%s, %s) = %v, brute force %v", trial, a, b, got, want)
		}
		h, ok := FindHom(a, b)
		if ok != want {
			t.Fatalf("trial %d: FindHom(%s, %s) found = %v, brute force %v", trial, a, b, ok, want)
		}
		if !ok {
			continue
		}
		for _, v := range a.X {
			if h[v] != v {
				t.Fatalf("trial %d: witness moves distinguished %s to %s", trial, v, h[v])
			}
		}
		img := func(term rdf.Term) rdf.Term {
			if !term.IsVar() {
				return term
			}
			w, bound := h[term]
			if !bound {
				t.Fatalf("trial %d: witness misses %s", trial, term)
			}
			return w
		}
		for _, tr := range a.S {
			if im := rdf.T(img(tr.S), img(tr.P), img(tr.O)); !b.S.Contains(im) {
				t.Fatalf("trial %d: witness maps %s to %s, not in %s", trial, tr, im, b.S)
			}
		}
	}
}

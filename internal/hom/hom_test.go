package hom

import (
	"fmt"
	"testing"

	"wdsparql/internal/rdf"
)

func tp(s, p, o string) rdf.Triple {
	conv := func(x string) rdf.Term {
		if len(x) > 0 && x[0] == '?' {
			return rdf.Var(x)
		}
		return rdf.IRI(x)
	}
	return rdf.T(conv(s), conv(p), conv(o))
}

func TestExistsSimple(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"), tp("b", "p", "c"))
	if !Exists([]rdf.Triple{tp("?x", "p", "?y"), tp("?y", "p", "?z")}, g) {
		t.Fatal("expected path homomorphism to exist")
	}
	if Exists([]rdf.Triple{tp("?x", "p", "?y"), tp("?y", "p", "?z"), tp("?z", "p", "?w")}, g) {
		t.Fatal("length-3 path should not embed into length-2 path")
	}
}

// Long paths: a 40-path embeds into a 60-path, a 61-path does not. (The
// name is kept from the tree-decomposition solver this case was first
// written for.)
func TestExistsTDLongPath(t *testing.T) {
	long := rdf.NewGraph()
	for i := 0; i < 60; i++ {
		long.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", i+1))
	}
	path := func(n int) []rdf.Triple {
		var pats []rdf.Triple
		for i := 0; i < n; i++ {
			pats = append(pats, tp(fmt.Sprintf("?v%d", i), "p", fmt.Sprintf("?v%d", i+1)))
		}
		return pats
	}
	if !Exists(path(40), long) || Exists(path(61), long) {
		t.Fatal("path embedding into a 60-path")
	}
}

func TestExistsDisconnectedPattern(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"), tp("c", "q", "d"))
	pats := []rdf.Triple{tp("?x", "p", "?y"), tp("?u", "q", "?v")}
	if !Exists(pats, g) {
		t.Fatal("disconnected pattern should match")
	}
	if Exists(append(pats, tp("?u", "p", "?v")), g) {
		t.Fatal("u,v cannot satisfy both predicates")
	}
}

func TestExistsRepeatedVariable(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"))
	if Exists([]rdf.Triple{tp("?x", "p", "?x")}, g) {
		t.Fatal("loop pattern should not match non-loop data")
	}
	g.Add(tp("c", "p", "c"))
	if !Exists([]rdf.Triple{tp("?x", "p", "?x")}, g) {
		t.Fatal("loop pattern should match loop")
	}
}

func TestExistsEmptyPattern(t *testing.T) {
	g := rdf.NewGraph()
	if !Exists(nil, g) {
		t.Fatal("empty pattern admits the empty homomorphism")
	}
}

func TestExistsConstants(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"))
	if !Exists([]rdf.Triple{tp("a", "p", "?y")}, g) {
		t.Fatal("constant subject should match")
	}
	if Exists([]rdf.Triple{tp("b", "p", "?y")}, g) {
		t.Fatal("wrong constant must not match")
	}
}

// Ground patterns are membership tests, and the empty pattern always
// matches. (Named, like TestExistsTDLongPath, for the solver it was
// first written for.)
func TestExistsTDGroundAndEmpty(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"))
	if !Exists(nil, g) {
		t.Fatal("empty pattern")
	}
	if !Exists([]rdf.Triple{tp("a", "p", "b")}, g) {
		t.Fatal("true ground")
	}
	if Exists([]rdf.Triple{tp("b", "p", "a")}, g) {
		t.Fatal("false ground")
	}
}

// A false ground triple refutes whatever the other patterns admit.
// (Named for the domain-propagation pass that once did the refuting.)
func TestComputeDomainsGroundFailure(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"))
	if Exists([]rdf.Triple{tp("x", "p", "y"), tp("?v", "p", "?w")}, g) {
		t.Fatal("false ground triple must refute")
	}
}

func TestFindAllCount(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"), tp("a", "p", "c"), tp("b", "p", "c"))
	all := FindAll([]rdf.Triple{tp("?x", "p", "?y")}, g, 0)
	if len(all) != 3 {
		t.Fatalf("want 3 matches, got %d", len(all))
	}
	limited := FindAll([]rdf.Triple{tp("?x", "p", "?y")}, g, 2)
	if len(limited) != 2 {
		t.Fatalf("want 2 limited matches, got %d", len(limited))
	}
}

func TestExistsExtending(t *testing.T) {
	g := rdf.GraphOf(tp("a", "p", "b"), tp("b", "q", "c"))
	mu := rdf.Mapping{"x": "a"}
	if !ExistsExtending([]rdf.Triple{tp("?x", "p", "?y"), tp("?y", "q", "?z")}, mu, g) {
		t.Fatal("extension should exist")
	}
	mu2 := rdf.Mapping{"x": "b"}
	if ExistsExtending([]rdf.Triple{tp("?x", "p", "?y")}, mu2, g) {
		t.Fatal("no p-edge out of b")
	}
}

func TestHomBetweenTGraphs(t *testing.T) {
	x := []rdf.Term{rdf.Var("x")}
	// (?x, p, ?y) maps into {(?x, p, ?y), (?y, p, ?z)} fixing ?x.
	from := NewGTGraph(NewTGraph(tp("?x", "p", "?y")), x)
	to := NewGTGraph(NewTGraph(tp("?x", "p", "?y"), tp("?y", "p", "?z")), x)
	if !Hom(from, to) {
		t.Fatal("expected hom from smaller to larger")
	}
	if Hom(to, from) {
		t.Fatal("2-path cannot map into a single edge while fixing ?x")
	}
}

func TestHomDistinguishedBlocks(t *testing.T) {
	// Without X, (?a, p, ?b) → (?x, p, ?y) holds; fixing ?a = distinct
	// variable not present in the target must fail.
	from := NewGTGraph(NewTGraph(tp("?a", "p", "?b")), []rdf.Term{rdf.Var("a")})
	to := NewGTGraph(NewTGraph(tp("?x", "p", "?y")), []rdf.Term{rdf.Var("a")})
	if Hom(from, to) {
		t.Fatal("?a is distinguished and absent from target; hom must fail")
	}
	free := NewGTGraph(NewTGraph(tp("?a", "p", "?b")), nil)
	freeTo := NewGTGraph(NewTGraph(tp("?x", "p", "?y")), nil)
	if !Hom(free, freeTo) {
		t.Fatal("unconstrained hom should exist")
	}
}

func TestCoreFoldsPath(t *testing.T) {
	// {(?x,p,?y),(?y,p,?z)} with X=∅ folds onto a single triple?
	// No: a 2-path's core is the 2-path unless there is a loop.
	g := NewGTGraph(NewTGraph(tp("?x", "p", "?y"), tp("?y", "p", "?z")), nil)
	c := Core(g)
	if len(c.S) != 2 {
		t.Fatalf("directed 2-path is a core; got %s", c.S)
	}
	// Adding a loop lets everything fold onto it.
	withLoop := NewGTGraph(NewTGraph(tp("?x", "p", "?y"), tp("?y", "p", "?z"), tp("?w", "p", "?w")), nil)
	c2 := Core(withLoop)
	if len(c2.S) != 1 {
		t.Fatalf("want fold onto loop, got %s", c2.S)
	}
}

func TestCoreRespectsDistinguished(t *testing.T) {
	// (?x,p,?y),(?x,p,?z): ?z can fold onto ?y when free...
	g := NewGTGraph(NewTGraph(tp("?x", "p", "?y"), tp("?x", "p", "?z")), nil)
	if len(Core(g).S) != 1 {
		t.Fatal("parallel optional branches fold")
	}
	// ...but not when ?y and ?z are distinguished.
	gx := NewGTGraph(NewTGraph(tp("?x", "p", "?y"), tp("?x", "p", "?z")),
		[]rdf.Term{rdf.Var("y"), rdf.Var("z")})
	if len(Core(gx).S) != 2 {
		t.Fatal("distinguished variables must not fold")
	}
}

func TestCoreIdempotentAndEquivalent(t *testing.T) {
	g := NewGTGraph(NewTGraph(
		tp("?x", "p", "?y"), tp("?y", "p", "?z"), tp("?w", "p", "?w"), tp("?v", "q", "?w"),
	), []rdf.Term{rdf.Var("v")})
	c := Core(g)
	if !IsCore(c) {
		t.Fatal("core must be a core")
	}
	if !Equivalent(g, c) {
		t.Fatal("core must be hom-equivalent to the original")
	}
	cc := Core(c)
	if !cc.S.Equal(c.S) {
		t.Fatal("Core must be idempotent")
	}
}

func TestFreezeThawRoundTrip(t *testing.T) {
	for _, term := range []rdf.Term{rdf.Var("x"), rdf.IRI("p"), rdf.IRI("frozen-looking:v")} {
		if got := ThawTerm(FreezeTerm(term)); got != term {
			t.Fatalf("roundtrip %v -> %v", term, got)
		}
	}
}

func TestTGraphOps(t *testing.T) {
	s := NewTGraph(tp("?x", "p", "?y"), tp("?x", "p", "?y"), tp("a", "p", "b"))
	if len(s) != 2 {
		t.Fatalf("dedup failed: %s", s)
	}
	if !s.Contains(tp("a", "p", "b")) {
		t.Fatal("Contains failed")
	}
	u := s.Union(NewTGraph(tp("?z", "q", "?x")))
	if len(u) != 3 {
		t.Fatalf("union size: %s", u)
	}
	if s.Ground() {
		t.Fatal("s has variables")
	}
	if !NewTGraph(tp("a", "p", "b")).Ground() {
		t.Fatal("ground t-graph misdetected")
	}
}

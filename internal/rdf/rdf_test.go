package rdf

import (
	"strings"
	"testing"
)

func TestTermBasics(t *testing.T) {
	v := Var("?x")
	if v.Value != "x" || !v.IsVar() || v.String() != "?x" {
		t.Fatalf("Var: %+v", v)
	}
	i := IRI("p")
	if !i.IsIRI() || i.String() != "p" {
		t.Fatalf("IRI: %+v", i)
	}
	if !i.Less(v) {
		t.Fatal("IRIs order before variables")
	}
}

func TestTripleVars(t *testing.T) {
	tr := T(Var("x"), IRI("p"), Var("x"))
	vs := tr.Vars()
	if len(vs) != 1 || vs[0] != Var("x") {
		t.Fatalf("repeated variable deduplicated: %v", vs)
	}
	if tr.Ground() {
		t.Fatal("has variables")
	}
	g := T(IRI("a"), IRI("p"), IRI("b"))
	if !g.Ground() {
		t.Fatal("ground triple")
	}
}

func TestVarsOfSorted(t *testing.T) {
	vs := VarsOf([]Triple{
		T(Var("z"), IRI("p"), Var("a")),
		T(Var("m"), IRI("p"), Var("z")),
	})
	if len(vs) != 3 {
		t.Fatalf("want 3 vars, got %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].Less(vs[i]) {
			t.Fatalf("not sorted: %v", vs)
		}
	}
}

func TestMappingCompatibility(t *testing.T) {
	m1 := Mapping{"x": "a", "y": "b"}
	m2 := Mapping{"y": "b", "z": "c"}
	m3 := Mapping{"y": "WRONG"}
	if !m1.Compatible(m2) {
		t.Fatal("m1 ~ m2")
	}
	if m1.Compatible(m3) {
		t.Fatal("m1 !~ m3")
	}
	u, ok := m1.Union(m2)
	if !ok || len(u) != 3 || u["z"] != "c" {
		t.Fatalf("union: %v %v", u, ok)
	}
	if _, ok := m1.Union(m3); ok {
		t.Fatal("incompatible union must fail")
	}
}

func TestMappingApplyRestrict(t *testing.T) {
	m := Mapping{"x": "a"}
	tr := m.Apply(T(Var("x"), IRI("p"), Var("y")))
	if tr.S != IRI("a") || tr.O != Var("y") {
		t.Fatalf("apply: %v", tr)
	}
	r := m.Restrict([]Term{Var("y")})
	if len(r) != 0 {
		t.Fatalf("restrict: %v", r)
	}
	if !m.Equal(Mapping{"x": "a"}) || m.Equal(Mapping{"x": "b"}) {
		t.Fatal("Equal broken")
	}
}

func TestMappingSet(t *testing.T) {
	s := NewMappingSet()
	if !s.Add(Mapping{"x": "a"}) || s.Add(Mapping{"x": "a"}) {
		t.Fatal("dedup broken")
	}
	s.Add(Mapping{"x": "b"})
	if s.Len() != 2 {
		t.Fatalf("len: %d", s.Len())
	}
	if !s.Contains(Mapping{"x": "a"}) || s.Contains(Mapping{"x": "c"}) {
		t.Fatal("contains broken")
	}
	sl := s.Slice()
	if len(sl) != 2 {
		t.Fatal("slice")
	}
}

func TestGraphIndexesAndMatch(t *testing.T) {
	g := GraphOf(
		T(IRI("a"), IRI("p"), IRI("b")),
		T(IRI("a"), IRI("p"), IRI("c")),
		T(IRI("b"), IRI("q"), IRI("c")),
	)
	if g.Len() != 3 {
		t.Fatalf("len %d", g.Len())
	}
	if n := len(g.Match(T(IRI("a"), IRI("p"), Var("o")))); n != 2 {
		t.Fatalf("SP match: %d", n)
	}
	if n := len(g.Match(T(Var("s"), IRI("q"), Var("o")))); n != 1 {
		t.Fatalf("P match: %d", n)
	}
	if n := len(g.Match(T(Var("s"), Var("p"), Var("o")))); n != 3 {
		t.Fatalf("full scan: %d", n)
	}
	if n := len(g.Match(T(Var("s"), Var("p"), Var("s")))); n != 0 {
		t.Fatalf("loop pattern: %d", n)
	}
	g.AddTriple("d", "r", "d")
	if n := len(g.Match(T(Var("s"), Var("p"), Var("s")))); n != 1 {
		t.Fatalf("loop pattern after adding loop: %d", n)
	}
	if g.MatchCount(T(IRI("a"), IRI("p"), Var("o"))) != 2 {
		t.Fatal("MatchCount")
	}
}

func TestGraphMatchMappings(t *testing.T) {
	g := GraphOf(T(IRI("a"), IRI("p"), IRI("b")))
	ms := g.MatchMappings(T(Var("x"), IRI("p"), Var("y")))
	if len(ms) != 1 || ms[0]["x"] != "a" || ms[0]["y"] != "b" {
		t.Fatalf("mappings: %v", ms)
	}
	// Ground pattern: one empty mapping if present.
	ms = g.MatchMappings(T(IRI("a"), IRI("p"), IRI("b")))
	if len(ms) != 1 || len(ms[0]) != 0 {
		t.Fatalf("ground match: %v", ms)
	}
	ms = g.MatchMappings(T(IRI("a"), IRI("p"), IRI("zzz")))
	if len(ms) != 0 {
		t.Fatalf("absent ground match: %v", ms)
	}
}

func TestGraphAddPanicsOnVariable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph().Add(T(Var("x"), IRI("p"), IRI("b")))
}

func TestGraphDomAndClone(t *testing.T) {
	g := GraphOf(T(IRI("a"), IRI("p"), IRI("b")))
	dom := g.Dom()
	if len(dom) != 3 || !g.HasIRI("p") || g.HasIRI("zzz") {
		t.Fatalf("dom: %v", dom)
	}
	c := g.Clone()
	c.AddTriple("x", "y", "z")
	if g.Len() != 1 || c.Len() != 2 || !g.Equal(g) || g.Equal(c) {
		t.Fatal("clone independence / Equal")
	}
	h := NewGraph()
	h.Merge(c)
	if !h.Equal(c) {
		t.Fatal("merge")
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	src := `
# a comment
a p b .
<http://x> <http://p> <http://y>
b q c .
`
	g, err := ParseGraph(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("len %d", g.Len())
	}
	out := FormatGraph(g)
	g2, err := ParseGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", out, FormatGraph(g2))
	}
}

func TestNTriplesErrors(t *testing.T) {
	for _, bad := range []string{"a p", "a p b c", "?x p b", "<unterminated p b"} {
		if _, err := ParseGraph(bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestMappingString(t *testing.T) {
	m := Mapping{"y": "b", "x": "a"}
	s := m.String()
	if !strings.Contains(s, "?x->a") || strings.Index(s, "?x") > strings.Index(s, "?y") {
		t.Fatalf("deterministic rendering: %s", s)
	}
}

func TestParamIndex(t *testing.T) {
	if i, ok := Param(12).ParamIndex(); !ok || i != 12 || Param(12).Value != ">12" {
		t.Fatalf("Param(12) = %v, index %d, %v", Param(12), i, ok)
	}
	for _, term := range []Term{IRI(">"), IRI(">1a"), IRI(">+1"), IRI("1"), Var(">1")} {
		if _, ok := term.ParamIndex(); ok {
			t.Fatalf("%v read as a parameter", term)
		}
	}
}

package plan

import (
	"fmt"
	"slices"
	"testing"

	"wdsparql/internal/rdf"
)

// pat builds a Pattern from three codes: ≥ 0 is a variable slot, use
// c() for constants.
func pat(s, p, o int32) Pattern { return Pattern{Code: [3]int32{s, p, o}} }

// c encodes the IRI as a constant pattern code, interning it if new.
func c(g *rdf.Graph, iri string) int32 { return ^int32(g.Dict().InternIRI(iri)) }

// starGraph: 20 fan-in triples under p plus a single triple under q.
func starGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		g.AddTriple(fmt.Sprintf("s%d", i), "p", "hub")
	}
	g.AddTriple("hub", "q", "t")
	return g
}

func TestCompileOrdersMostRestrictiveFirst(t *testing.T) {
	g := starGraph()
	pats := []Pattern{
		pat(0, c(g, "p"), 1), // 20 matches
		pat(2, c(g, "q"), 3), // 1 match
	}
	pl := Compile(pats, g, nil)
	if got := pl.Order(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", got)
	}
	if s := pl.Steps[0]; s.Pat != 1 || s.Base != 1 || s.Est != 1 || s.Side != "P" {
		t.Fatalf("first step = %+v, want pattern 1, base 1, est 1, side P", s)
	}
	if s := pl.Steps[1]; s.Base != 20 || s.Est != 20 {
		t.Fatalf("second step = %+v, want base 20, est 20 (no bound slots shared)", s)
	}
	for i, st := range pl.Steps {
		if pl.Order()[i] != st.Pat || pl.Est(st.Pat) != st.Est {
			t.Fatalf("Order/Est out of sync with Steps at %d", i)
		}
	}
	if pl.Volatile() {
		t.Fatal("disconnected patterns flagged volatile")
	}
}

// Bound-slot propagation: after the 4-match pattern binds ?1, the
// 8-match pattern estimates at 8/8 = 1 (8 distinct subjects under pb)
// and must be planned before the 6-match disconnected pattern. Without
// propagation it would lose, 8 > 6.
func TestCompilePropagatesBoundSlots(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddTriple(fmt.Sprintf("a%d", i), "pa", fmt.Sprintf("m%d", i))
	}
	for i := 0; i < 8; i++ {
		g.AddTriple(fmt.Sprintf("m%d", i), "pb", fmt.Sprintf("n%d", i))
	}
	for i := 0; i < 6; i++ {
		g.AddTriple(fmt.Sprintf("x%d", i), "pc", fmt.Sprintf("y%d", i))
	}
	pats := []Pattern{
		pat(0, c(g, "pa"), 1),
		pat(1, c(g, "pb"), 2),
		pat(3, c(g, "pc"), 4),
	}
	pl := Compile(pats, g, nil)
	if got := pl.Order(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2] (bound ?1 makes pattern 1 estimate 1)", got)
	}
	if s := pl.Steps[1]; s.Est != 1 || s.Side != "SP" {
		t.Fatalf("bound step = %+v, want est 1, side SP", s)
	}
}

// Entry slots (the ancestor variables of a wdPT node) count as bound
// from the first step.
func TestCompileEntrySlots(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		g.AddTriple(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	pats := []Pattern{pat(0, c(g, "p"), 1)}
	free := Compile(pats, g, nil)
	bound := Compile(pats, g, []int32{0})
	if free.Steps[0].Est != 20 || free.Steps[0].Side != "P" {
		t.Fatalf("free step = %+v", free.Steps[0])
	}
	if bound.Steps[0].Est != 1 || bound.Steps[0].Side != "SP" {
		t.Fatalf("entry-bound step = %+v, want est 20/20 = 1, side SP", bound.Steps[0])
	}
}

func TestVolatile(t *testing.T) {
	g := starGraph()
	p := c(g, "p")
	q := c(g, "q")
	cases := []struct {
		name  string
		pats  []Pattern
		entry []int32
		want  bool
	}{
		{"chain", []Pattern{pat(0, p, 1), pat(1, p, 2), pat(2, p, 3)}, nil, false},
		{"star", []Pattern{pat(0, p, 1), pat(0, p, 2), pat(0, q, 3)}, nil, false},
		{"triangle", []Pattern{pat(0, p, 1), pat(1, p, 2), pat(2, p, 0)}, nil, true},
		{"parallel-pair", []Pattern{pat(0, p, 1), pat(0, q, 1)}, nil, true},
		{"triangle-entry-cut", []Pattern{pat(0, p, 1), pat(1, p, 2), pat(2, p, 0)}, []int32{0}, false},
		{"self-loop", []Pattern{pat(0, p, 0)}, nil, false},
		{"single", []Pattern{pat(0, p, 1)}, nil, false},
	}
	for _, tc := range cases {
		if got := Compile(tc.pats, g, tc.entry).Volatile(); got != tc.want {
			t.Errorf("%s: Volatile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The catalog agrees across backends, so the compiled order must too.
func TestCompileBackendInvariant(t *testing.T) {
	g := starGraph()
	pats := []Pattern{
		pat(0, c(g, "p"), 1),
		pat(1, c(g, "q"), 2),
	}
	want := Compile(pats, g, nil)
	got := Compile(pats, g.Clone().Freeze(), nil)
	if !slices.Equal(got.Order(), want.Order()) {
		t.Fatalf("frozen: order = %v, want %v", got.Order(), want.Order())
	}
}

package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Dict round-trip: intern → lookup → string is the identity, IDs are
// dense, stable, and the IRI/variable ranges are disjoint.
func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	rng := rand.New(rand.NewSource(7))
	var iris, vars []string
	for i := 0; i < 500; i++ {
		iris = append(iris, fmt.Sprintf("iri%d", rng.Intn(200)))
		vars = append(vars, fmt.Sprintf("v%d", rng.Intn(200)))
	}
	for _, v := range iris {
		id := d.InternIRI(v)
		if id.IsVar() {
			t.Fatalf("IRI %q got variable-range ID %d", v, id)
		}
		if got := d.StringOf(id); got != v {
			t.Fatalf("StringOf(InternIRI(%q)) = %q", v, got)
		}
		if d.TermOf(id) != IRI(v) {
			t.Fatalf("TermOf(InternIRI(%q)) = %v", v, d.TermOf(id))
		}
		if again := d.InternIRI(v); again != id {
			t.Fatalf("re-interning %q changed ID %d → %d", v, id, again)
		}
		look, ok := d.LookupIRI(v)
		if !ok || look != id {
			t.Fatalf("LookupIRI(%q) = %d, %v", v, look, ok)
		}
	}
	for _, v := range vars {
		id := d.InternVar(v)
		if !id.IsVar() {
			t.Fatalf("variable %q got IRI-range ID %d", v, id)
		}
		if got := d.StringOf(id); got != v {
			t.Fatalf("StringOf(InternVar(%q)) = %q", v, got)
		}
		if d.TermOf(id) != Var(v) {
			t.Fatalf("TermOf(InternVar(%q)) = %v", v, d.TermOf(id))
		}
		// Var("?x") and Var("x") are the same variable.
		if d.InternVar("?"+v) != id {
			t.Fatalf("sigil-stripped interning of %q disagrees", v)
		}
	}
	if d.NumIRIs() > 200 || d.NumVars() > 200 {
		t.Fatalf("duplicate interning: %d IRIs, %d vars", d.NumIRIs(), d.NumVars())
	}
	// Dense and stable: ID i decodes to the i-th distinct string.
	for i := 0; i < d.NumIRIs(); i++ {
		if id, ok := d.LookupIRI(d.StringOf(TermID(i))); !ok || id != TermID(i) {
			t.Fatalf("IRI table not dense at %d", i)
		}
	}
}

// EncodeTriple/DecodeTriple round-trip on random triples and patterns.
func TestDictTripleRoundTrip(t *testing.T) {
	d := NewDict()
	rng := rand.New(rand.NewSource(8))
	randTerm := func() Term {
		if rng.Intn(2) == 0 {
			return IRI(fmt.Sprintf("c%d", rng.Intn(20)))
		}
		return Var(fmt.Sprintf("x%d", rng.Intn(20)))
	}
	for i := 0; i < 300; i++ {
		tr := T(randTerm(), randTerm(), randTerm())
		enc := d.EncodeTriple(tr)
		if got := d.DecodeTriple(enc); got != tr {
			t.Fatalf("round trip: %v → %v → %v", tr, enc, got)
		}
		for j, term := range tr.Terms() {
			if term.IsVar() != enc[j].IsVar() {
				t.Fatalf("kind not preserved at position %d of %v", j, tr)
			}
		}
	}
}

// Dict.Clone preserves IDs in both directions.
func TestDictClone(t *testing.T) {
	d := NewDict()
	a, x := d.InternIRI("a"), d.InternVar("x")
	c := d.Clone()
	if id, ok := c.LookupIRI("a"); !ok || id != a {
		t.Fatal("clone lost IRI")
	}
	if id, ok := c.LookupVar("x"); !ok || id != x {
		t.Fatal("clone lost variable")
	}
	// Divergence after cloning must not leak either way.
	c.InternIRI("only-in-clone")
	if _, ok := d.LookupIRI("only-in-clone"); ok {
		t.Fatal("clone shares state with original")
	}
}

// Sealing moves an extension's terms into a shared level without
// changing an ID: over a root, two seals and the terms interned
// between them, every IRI and variable looks up, decodes and clones to
// the same ID, and a fork of the sealed dictionary sees all of them.
func TestDictSealKeepsIDs(t *testing.T) {
	root := NewDict()
	root.InternIRI("r")
	root.InternVar("v")
	d := root.Fork()
	want := map[string]TermID{"r": 0, "?v": VarIDBase}
	intern := func(i int) {
		want[fmt.Sprintf("i%d", i)] = d.InternIRI(fmt.Sprintf("i%d", i))
		want[fmt.Sprintf("?x%d", i)] = d.InternVar(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < 30; i++ {
		intern(i)
		if i%10 == 9 {
			d.Seal()
		}
	}
	intern(30)
	for _, dd := range []*Dict{d, d.Fork(), d.Clone()} {
		if dd.NumIRIs() != 32 || dd.NumVars() != 32 {
			t.Fatalf("%d IRIs, %d variables, want 32 and 32", dd.NumIRIs(), dd.NumVars())
		}
		for s, id := range want {
			got, ok := dd.Lookup(IRI(s))
			if s[0] == '?' {
				got, ok = dd.LookupVar(s)
			}
			if !ok || got != id || dd.TermOf(id).Value != strings.TrimPrefix(s, "?") {
				t.Fatalf("%s: ID %d (%v), want %d; decodes to %q", s, got, ok, id, dd.TermOf(id).Value)
			}
		}
		if iris := dd.irisAll(); len(iris) != 32 || iris[31] != "i30" {
			t.Fatalf("IRI table %v", iris)
		}
	}
}

func TestMatchesPatternID(t *testing.T) {
	d := NewDict()
	a, b, r := d.InternIRI("a"), d.InternIRI("b"), d.InternIRI("r")
	x, y := VarID(0), VarID(1)
	cases := []struct {
		p, t IDTriple
		want bool
	}{
		{IDTriple{x, r, y}, IDTriple{a, r, b}, true},
		{IDTriple{x, r, x}, IDTriple{a, r, b}, false},
		{IDTriple{x, r, x}, IDTriple{a, r, a}, true},
		{IDTriple{a, r, y}, IDTriple{a, r, b}, true},
		{IDTriple{b, r, y}, IDTriple{a, r, b}, false},
		{IDTriple{x, x, y}, IDTriple{r, r, b}, true},
		{IDTriple{x, x, y}, IDTriple{a, r, b}, false},
		{IDTriple{x, y, x}, IDTriple{a, r, a}, true},
	}
	for _, c := range cases {
		if got := MatchesPatternID(c.p, c.t); got != c.want {
			t.Fatalf("MatchesPatternID(%v, %v) = %v, want %v", c.p, c.t, got, c.want)
		}
	}
}

// Freeze seals the dictionary's extension with the triples: a fork
// after a re-freeze copies only the terms interned since, so its
// allocated bytes do not grow with the IRIs ingested before it.
func TestForkAfterRefreezeAllocsFlat(t *testing.T) {
	forkBytes := func(ingested int) uint64 {
		g := GraphFromTriples([]Triple{T(IRI("a"), IRI("p"), IRI("b"))}).Fork()
		for i := 0; i < ingested; i++ {
			g.AddTriple(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
		}
		g.Freeze()
		g.AddTriple("new-s", "p", "new-o")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			_ = g.Fork()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	small, large := forkBytes(1<<8), forkBytes(1<<13)
	if large > 2*small {
		t.Errorf("a fork after a re-freeze allocates %d bytes over 256 ingested IRI pairs, %d over 8192", small, large)
	}
}

package sparql

import (
	"math/rand"
	"strings"
	"testing"

	"wdsparql/internal/rdf"
)

// Tests for the FILTER / SELECT surface: the lexer's angle-bracket
// quoting (a regression — `<...>` used to be split on whitespace and
// parentheses), the expression grammar, the three-valued evaluation
// semantics, the filter safety condition, and projection.

// TestLexerAngleQuoting is the regression test for the `<...>` lexing
// fix: an angle-quoted IRI may contain spaces, parentheses, commas and
// keywords without being split into tokens. Pre-fix, every one of
// these inputs failed to parse (or mis-parsed the IRI).
func TestLexerAngleQuoting(t *testing.T) {
	for _, tc := range []struct {
		src string
		iri string
	}{
		{`(?x <http://ex.org/p#frag(1)> ?y)`, "http://ex.org/p#frag(1)"},
		{`(?x <a b> ?y)`, "a b"},
		{`(?x <AND> ?y)`, "AND"},
		{`(?x <p,q> ?y)`, "p,q"},
		{`(?x <has	tab> ?y)`, "has\ttab"},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		tr, ok := p.(Triple)
		if !ok || tr.T.P.Value != tc.iri {
			t.Fatalf("parse %q: predicate = %#v, want IRI %q", tc.src, p, tc.iri)
		}
		back, err := Parse(Format(p))
		if err != nil {
			t.Fatalf("reparse of %q (formatted %q): %v", tc.src, Format(p), err)
		}
		if !Equal(p, back) {
			t.Fatalf("roundtrip %q: %s vs %s", tc.src, Format(p), Format(back))
		}
	}
	// An unterminated IRI is a parse error, not a silent truncation.
	if _, err := Parse(`(?x <oops ?y)`); err == nil {
		t.Fatal("unterminated <...> should fail to parse")
	}
}

func TestParseFilterProductions(t *testing.T) {
	x, y, z := rdf.Var("x"), rdf.Var("y"), rdf.Var("z")
	for _, tc := range []struct {
		src  string
		want Pattern
	}{
		{
			`((?x p ?y) FILTER ?y = b)`,
			Filter{Where: TP(x, rdf.IRI("p"), y), Cond: Eq(y, rdf.IRI("b"))},
		},
		{
			`((?x p ?y) FILTER ?x != ?y)`,
			Filter{Where: TP(x, rdf.IRI("p"), y), Cond: Neq(x, y)},
		},
		{
			`(((?x p ?y) OPT (?y q ?z)) FILTER BOUND(?z))`,
			Filter{Where: Opt(TP(x, rdf.IRI("p"), y), TP(y, rdf.IRI("q"), z)), Cond: Bound{Var: z}},
		},
		{
			`((?x p ?y) FILTER NOT BOUND(?y))`,
			Filter{Where: TP(x, rdf.IRI("p"), y), Cond: ExprNot{X: Bound{Var: y}}},
		},
		{
			`((?x p ?y) FILTER (?x = a OR ?y = b) AND ?x != ?y)`,
			Filter{Where: TP(x, rdf.IRI("p"), y), Cond: ExprBinary{
				Op:    ExprAnd,
				Left:  ExprBinary{Op: ExprOr, Left: Eq(x, rdf.IRI("a")), Right: Eq(y, rdf.IRI("b"))},
				Right: Neq(x, y),
			}},
		},
		{
			// Two FILTER clauses nest inner-to-outer in source order.
			`((?x p ?y) FILTER ?x = a FILTER ?y != b)`,
			Filter{
				Where: Filter{Where: TP(x, rdf.IRI("p"), y), Cond: Eq(x, rdf.IRI("a"))},
				Cond:  Neq(y, rdf.IRI("b")),
			},
		},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		if !Equal(p, tc.want) {
			t.Fatalf("parse %q:\ngot  %s\nwant %s", tc.src, Format(p), Format(tc.want))
		}
		back, err := Parse(Format(p))
		if err != nil {
			t.Fatalf("reparse %q: %v", Format(p), err)
		}
		if !Equal(p, back) {
			t.Fatalf("roundtrip %q: %s", tc.src, Format(back))
		}
	}
	for _, bad := range []string{
		`((?x p ?y) FILTER)`,
		`((?x p ?y) FILTER ?x)`,
		`((?x p ?y) FILTER BOUND ?x)`,             // BOUND requires parens
		`((?x p ?y) FILTER ?x = a AND (?y q ?z))`, // pattern after filter
		`((?x p ?y) FILTER ?x = a (?y q ?z))`,     // FILTER clauses must come last
		`(FILTER ?x = a)`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestParseSelect(t *testing.T) {
	p := MustParse(`SELECT ?y ?x WHERE ((?x p ?y) FILTER ?x != ?y)`)
	sel, ok := p.(Select)
	if !ok || sel.Distinct || len(sel.Vars) != 2 ||
		sel.Vars[0] != rdf.Var("y") || sel.Vars[1] != rdf.Var("x") {
		t.Fatalf("SELECT parse: %#v", p)
	}
	p = MustParse(`SELECT DISTINCT * WHERE ((?x p ?y) OPT (?y q ?z))`)
	sel = p.(Select)
	if !sel.Distinct || sel.Vars != nil {
		t.Fatalf("SELECT DISTINCT *: %#v", sel)
	}
	for _, src := range []string{
		`SELECT ?x WHERE (?x p ?y)`,
		`SELECT DISTINCT ?x ?z WHERE (((?x p ?y) OPT (?y q ?z)) FILTER BOUND(?z))`,
		`SELECT * WHERE (?x p ?y) UNION (?x q ?y)`,
	} {
		p := MustParse(src)
		back, err := Parse(Format(p))
		if err != nil {
			t.Fatalf("reparse %q: %v", Format(p), err)
		}
		if !Equal(p, back) {
			t.Fatalf("roundtrip %q: %s", src, Format(back))
		}
	}
	for _, bad := range []string{
		`SELECT WHERE (?x p ?y)`,
		`SELECT a WHERE (?x p ?y)`,
		`SELECT ?x (?x p ?y)`,
		`((?x p ?y) AND SELECT ?x WHERE (?y q ?z))`, // SELECT is top-level only
		`SELECT ?x WHERE (?x p ?y) extra`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestFilterSafety(t *testing.T) {
	// Safe: the filter variable ?z is in scope (inside the OPT arm it
	// wraps) — BOUND on it is the whole point.
	if err := CheckWellDesigned(MustParse(`(((?x p ?y) OPT (?y q ?z)) FILTER BOUND(?z))`)); err != nil {
		t.Fatalf("safe filter rejected: %v", err)
	}
	// Unsafe: ?w never occurs in the wrapped pattern.
	err := CheckWellDesigned(MustParse(`((?x p ?y) FILTER ?w = a)`))
	wd, ok := err.(*WellDesignedError)
	if !ok || !wd.Unsafe {
		t.Fatalf("unsafe filter: got %v, want Unsafe WellDesignedError", err)
	}
	// Projection of a variable absent from the WHERE pattern.
	if err := CheckWellDesigned(MustParse(`SELECT ?q WHERE (?x p ?y)`)); err == nil {
		t.Fatal("projection of foreign variable should be rejected")
	}
	// A filter inside an OPT arm may only use that arm's variables
	// plus nothing foreign — and well-designedness of the OPT
	// structure itself is checked through the Filter wrapper.
	err = CheckWellDesigned(MustParse(
		`((((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2))) FILTER ?x = a)`))
	if err == nil {
		t.Fatal("filter must not mask a well-designedness violation underneath")
	}
}

// TestEvalFilterThreeValued pins the three-valued semantics: a
// comparison on an unbound variable is an error (row dropped), BOUND
// observes bindings, and the Kleene tables let false absorb errors in
// AND and true absorb them in OR.
func TestEvalFilterThreeValued(t *testing.T) {
	// (a,b) extends with z=e; (c,d) stays bare (z unbound).
	g := rdf.MustParseGraph("a p b .\nc p d .\nb q e .\n")
	base := `((?x p ?y) OPT (?y q ?z))`
	sols := func(src string) []rdf.Mapping {
		return Eval(MustParse(src), g).Slice()
	}

	// Comparison on the unbound ?z errors: only the extended row can
	// pass, and only it can fail — the bare row is dropped either way.
	if got := sols(`(` + base + ` FILTER ?z = e)`); len(got) != 1 || got[0]["x"] != "a" {
		t.Fatalf("?z = e: %v", got)
	}
	if got := sols(`(` + base + ` FILTER ?z != e)`); len(got) != 0 {
		t.Fatalf("?z != e should drop both rows: %v", got)
	}
	// BOUND is the unbound-aware observer.
	if got := sols(`(` + base + ` FILTER NOT BOUND(?z))`); len(got) != 1 || got[0]["x"] != "c" {
		t.Fatalf("NOT BOUND(?z): %v", got)
	}
	// false AND error = false, so NOT of it is true: both rows stay.
	if got := sols(`(` + base + ` FILTER NOT (?x = nosuch AND ?z = e))`); len(got) != 2 {
		t.Fatalf("NOT(false AND err) should keep both rows: %v", got)
	}
	// true OR error = true: both rows stay.
	if got := sols(`(` + base + ` FILTER ?x != nosuch OR ?z = e)`); len(got) != 2 {
		t.Fatalf("true OR err should keep both rows: %v", got)
	}
	// NOT error = error: drops the bare row.
	if got := sols(`(` + base + ` FILTER NOT ?z = e)`); len(got) != 0 {
		t.Fatalf("NOT err drops rows where ?z unbound, and NOT true the other: %v", got)
	}
	// Constants outside the dictionary are unequal to everything bound
	// — and two distinct absent constants are unequal to each other.
	if got := sols(`(` + base + ` FILTER nosuch1 != nosuch2)`); len(got) != 2 {
		t.Fatalf("distinct absent constants must compare unequal: %v", got)
	}
	if got := sols(`(` + base + ` FILTER nosuch1 = nosuch1)`); len(got) != 2 {
		t.Fatalf("identical absent constants must compare equal: %v", got)
	}
}

func TestEvalSelectProjection(t *testing.T) {
	g := rdf.MustParseGraph("a p b .\na p c .\nd p d .\n")
	// Projection onto ?x collapses (a,b) and (a,c) in the set
	// semantics of Eval.
	set := Eval(MustParse(`SELECT ?x WHERE (?x p ?y)`), g)
	if set.Len() != 2 {
		t.Fatalf("projected set: %v", set.Slice())
	}
	for _, mu := range set.Slice() {
		if len(mu) != 1 || mu["x"] == "" {
			t.Fatalf("projection leaked a variable: %v", mu)
		}
	}
	// Contains decides membership on the projected set.
	if !Contains(MustParse(`SELECT ?x WHERE (?x p ?y)`), g, rdf.Mapping{"x": "a"}) {
		t.Fatal("projected membership")
	}
	if Contains(MustParse(`SELECT ?x WHERE (?x p ?y)`), g, rdf.Mapping{"x": "b"}) {
		t.Fatal("b is no subject")
	}
}

// TestHashJoinAgreesOnFilters cross-validates the hash-join pipeline
// against the nested-loop reference on randomized filtered queries.
func TestHashJoinAgreesOnFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	nodes := []string{"a", "b", "c", "d"}
	conds := []string{
		`?x = a`, `?x != ?y`, `BOUND(?y)`, `NOT BOUND(?w)`,
		`?x = a OR ?y != b`, `(?x != c AND ?y = ?y) OR NOT BOUND(?z)`,
	}
	for trial := 0; trial < 200; trial++ {
		inner := randEvalPattern(rng, 2)
		vars := Vars(inner)
		if len(vars) == 0 {
			continue
		}
		src := "(" + Format(inner) + " FILTER " + conds[rng.Intn(len(conds))] + ")"
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("generated query %q: %v", src, err)
		}
		g := rdf.NewGraph()
		for i := 0; i < 3+rng.Intn(10); i++ {
			g.AddTriple(nodes[rng.Intn(4)], []string{"p", "q"}[rng.Intn(2)], nodes[rng.Intn(4)])
		}
		want := Eval(p, g)
		got := EvalHashJoin(p, g)
		if want.Len() != got.Len() {
			t.Fatalf("trial %d: %s\nnested-loop %d vs hash %d", trial, src, want.Len(), got.Len())
		}
		for _, mu := range want.Slice() {
			if !got.Contains(mu) {
				t.Fatalf("trial %d: %s: hash join missing %v", trial, src, mu)
			}
		}
	}
}

func TestHoistUnionsDistributesFilter(t *testing.T) {
	p := MustParse(`(((?x p ?y) UNION (?x q ?y)) FILTER ?x = a)`)
	br, err := HoistUnions(p)
	if err != nil {
		t.Fatalf("hoist: %v", err)
	}
	if len(br) != 2 {
		t.Fatalf("branches: %d", len(br))
	}
	for _, b := range br {
		f, ok := b.(Filter)
		if !ok || !ExprEqual(f.Cond, Eq(rdf.Var("x"), rdf.IRI("a"))) {
			t.Fatalf("branch lost its filter: %s", Format(b))
		}
	}
	// σ distributes: evaluation agrees before and after hoisting.
	g := rdf.MustParseGraph("a p b .\nb q c .\na q d .\n")
	want, got := Eval(p, g), Eval(UnionAll(br...), g)
	if want.Len() != got.Len() {
		t.Fatalf("hoist changed semantics: %v vs %v", want.Slice(), got.Slice())
	}
	if _, err := HoistUnions(MustParse(`SELECT ?x WHERE (?x p ?y)`)); err == nil {
		t.Fatal("HoistUnions must reject a SELECT operand")
	}
}

func TestOptNormalFormRejectsFilters(t *testing.T) {
	p := MustParse(`((?x p ?y) FILTER ?x = a)`)
	if IsOptNormalForm(p) {
		t.Fatal("FILTER is outside the OPT-normal-form fragment")
	}
	if _, err := ToOptNormalForm(p); err == nil || !strings.Contains(err.Error(), "FILTER-free") {
		t.Fatalf("ToOptNormalForm on a filtered pattern: %v", err)
	}
}

func TestRenameVarsFilters(t *testing.T) {
	p := MustParse(`SELECT ?x WHERE ((?x p ?y) FILTER ?x != ?y AND BOUND(?y))`)
	r := RenameVars(p, map[string]string{"x": "u", "y": "v"})
	want := MustParse(`SELECT ?u WHERE ((?u p ?v) FILTER ?u != ?v AND BOUND(?v))`)
	if !Equal(r, want) {
		t.Fatalf("rename: %s, want %s", Format(r), Format(want))
	}
}

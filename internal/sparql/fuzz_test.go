package sparql

import (
	"testing"
)

// FuzzParsePattern pins that the whole front half of the pipeline is
// total on arbitrary input: Parse returns a pattern or an error, never
// panics, and everything a parsed pattern immediately flows into —
// formatting, the well-designedness check, normal-form transforms —
// is panic-free too. Format must also round-trip: the printer's output
// for any accepted pattern is itself parseable.
func FuzzParsePattern(f *testing.F) {
	f.Add(`(?x p ?y)`)
	f.Add(`((?x p ?y) OPT (?y q ?z))`)
	f.Add(`((?x p ?y) AND (?z p ?w))`)
	f.Add(`((?x p ?y) UNION (?x q ?y))`)
	f.Add(`(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2)))`)
	f.Add(`((?x p`)
	f.Add(`()`)
	f.Add(`(?x ?y ?z ?w)`)
	f.Add("((?x \x00 ?y) OPT (?y q ?z))")
	// Regression: "??" used to double-strip into an empty-named
	// variable that Format printed as unparseable "?".
	f.Add(`(?? 0 0)`)
	// Angle-quoted IRIs: the lexer must honour <...> through spaces,
	// parens, commas and keywords (regression for the token-split bug).
	f.Add(`(?x <http://ex.org/p#frag(1)> ?y)`)
	f.Add(`(?x <a b,c> <AND>)`)
	f.Add(`(?x <unterminated ?y)`)
	// FILTER / SELECT productions.
	f.Add(`((?x p ?y) FILTER ?x = a)`)
	f.Add(`((?x p ?y) FILTER ?x != ?y FILTER BOUND(?y))`)
	f.Add(`(((?x p ?y) OPT (?y q ?z)) FILTER NOT BOUND(?z) OR ?x = a AND ?y != b)`)
	f.Add(`SELECT DISTINCT ?x ?y WHERE ((?x p ?y) FILTER (?x = a OR NOT ?y = b))`)
	f.Add(`SELECT * WHERE (?x p ?y) UNION (?x q ?y)`)
	f.Add(`SELECT ?x WHERE FILTER`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		_ = CheckWellDesigned(p)
		_ = IsOptNormalForm(p)
		_, _ = ToOptNormalForm(p)
		_, _ = HoistUnions(p)

		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output %q of accepted input %q does not re-parse: %v", text, src, err)
		}
		if !Equal(p, q) {
			t.Fatalf("Format round-trip changed the pattern: %q -> %q", src, text)
		}
	})
}

// FuzzTemplateKey pins the template key pass: it never panics, it
// accepts every text Parse accepts, and the key is the text with its
// constants lifted — filling the constants back in parses to the
// text's pattern, and so does instantiating the parsed template.
func FuzzTemplateKey(f *testing.F) {
	f.Add(`((person3 knows ?y) OPT (?y worksAt ?o))`)
	f.Add(`(((person3 knows ?y) AND (?y livesIn ?c)) FILTER (?c = city1))`)
	f.Add(`(((a p ?y) OPT (?y q b)) UNION ((a q ?o) OPT (?o p b)))`)
	f.Add(`SELECT DISTINCT ?o WHERE ((<http://x/a> knows ?y) AND (?y worksAt ?o))`)
	f.Add(`((knows knows ?y) FILTER (a = a) FILTER (b != ?y))`)
	f.Add(`((?x p <a>1) FILTER NOT (BOUND(?x) OR ?x = <q r>))`)
	f.Add(`((?x p ?y) FILTER ?y = o7)`)
	f.Add(`(<> p ?x)`)
	f.Add(`(>0 p ?x)`)
	f.Fuzz(func(t *testing.T, src string) {
		key, consts, ok := TemplateKey(src)
		p, err := Parse(src)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("TemplateKey rejects the parseable text %q", src)
		}
		filled, err := FillTemplate(key, consts)
		if err != nil {
			t.Fatalf("FillTemplate(%q, %q): %v", key, consts, err)
		}
		q, err := Parse(filled)
		if err != nil {
			t.Fatalf("the filled key %q of %q does not parse: %v", filled, src, err)
		}
		if Format(q) != Format(p) {
			t.Fatalf("key %q of %q fills to a different pattern:\n%s\nwant\n%s", key, src, Format(q), Format(p))
		}
		tp, err := ParseTemplate(key)
		if err != nil {
			t.Fatalf("the key %q of %q does not parse: %v", key, src, err)
		}
		if !Equal(Instantiate(tp, consts), p) {
			t.Fatalf("key %q of %q instantiates to a different pattern", key, src)
		}
	})
}

package tmplcheck

import (
	"math/rand"
	"testing"

	"wdsparql"
)

func TestVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for text, want := range map[string]int{
		`((a p ?y) OPT (?y q b))`:                 3, // renamed, equal, absent
		`((a p ?y) FILTER (?y = a))`:              2, // one constant: renamed, absent
		`((?x p ?y) OPT (?y q ?z))`:               0, // nothing to lift
		`((?x p ?y) FILTER BOUND(?y))`:            0,
		`((p p ?y) OPT (?y q ?z))`:                0, // a constant that is also a predicate stays
		`((a p ?y) UNION ((a q ?y)))`:             2,
		`SELECT ?y WHERE ((a p ?y) AND (?y q b))`: 3,
	} {
		vs := Variants(rng, text, []string{"c", "d"})
		if len(vs) != want {
			t.Fatalf("%s: %d variants %q, want %d", text, len(vs), vs, want)
		}
		eng := wdsparql.NewEngine(wdsparql.MustParseGraph("a p c .\nc q b .\nd p c ."), wdsparql.WithQueryCache(8))
		for _, v := range append(vs, text) {
			if err := Check(rng, eng, v); err != nil {
				t.Fatalf("%s: %v", v, err)
			}
		}
	}
}

func TestCheckAgreesOnErrors(t *testing.T) {
	eng := wdsparql.NewEngine(nil, wdsparql.WithQueryCache(8))
	for _, text := range []string{`((a p ?x`, `(((a p ?x) OPT (?y q b)) AND (?y r ?x))`} {
		if err := Check(rand.New(rand.NewSource(1)), eng, text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
}

package wdsparql_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql"
	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/tmplcheck"
)

// The template property: a text PrepareText prepares from its
// template's analysis gives exactly what parsing, translating and
// compiling the text itself gives — forest, pattern, explain trees, the row stream
// byte for byte, Count and Ask — whatever its constants are: renamed
// bijectively, two of them made equal, or one absent from the graph.

// lookupShapes are the query shapes of the benchmark's lookup_mix, plus
// one whose wdpf order depends on its constants (the two root triples
// sort by their subjects), a filter with constants on the left and on
// both sides, and a constant that is also a predicate.
var lookupShapes = []string{
	"(((person3 knows ?y) OPT (?y worksAt ?o)) OPT (?y email ?m))",
	"((((person3 knows ?y) OPT (?y worksAt ?o)) OPT (?y email ?m)) OPT (?y livesIn ?c))",
	"(((((person3 knows ?y) OPT (?y worksAt ?o)) OPT (?y email ?m)) OPT (?y livesIn ?c)) OPT (?y likes ?i))",
	"((person3 knows ?y) AND (?y knows ?z))",
	"(((person3 knows ?y) AND (?y knows ?z)) AND (?z worksAt ?o))",
	"((person3 knows ?y) OPT ((?y worksAt ?o) OPT (?o locatedIn ?c)))",
	"(((person3 knows ?y) AND (?y livesIn ?c)) FILTER (?c = city1))",
	"(((person3 knows ?y) AND (?y worksAt ?o)) FILTER (?o != org2))",
	"(((person3 knows ?y) OPT (?y email ?m)) FILTER BOUND(?m))",
	"SELECT DISTINCT ?o WHERE ((person3 knows ?y) AND (?y worksAt ?o))",
	"(((person3 knows ?y) OPT (?y worksAt ?o)) UNION ((person3 worksAt ?o) OPT (?o locatedIn ?c)))",
	"((person1 knows ?y) AND (person2 knows ?y))",
	"(((person3 knows ?y) AND (?y livesIn ?c)) FILTER ((city1 != ?c) AND (person3 = person3)))",
	"((knows knows ?y) OPT (?y email ?m))",
}

// lookupGraph is a small social graph over lookup_mix's vocabulary.
func lookupGraph() *rdf.Graph {
	g := gen.SocialNetwork(30, 1)
	for i := 0; i < 30; i++ {
		g.AddTriple(fmt.Sprintf("person%d", i), "livesIn", fmt.Sprintf("city%d", i%4))
		g.AddTriple(fmt.Sprintf("person%d", i), "likes", fmt.Sprintf("item%d", i%7))
	}
	for i := 0; i < 5; i++ {
		g.AddTriple(fmt.Sprintf("org%d", i), "locatedIn", fmt.Sprintf("city%d", i%4))
	}
	return g
}

// engines returns the engines a text is checked on: g sealed, with and
// without a query cache, and g as a sealed half plus an ApplyDelta
// overlay holding the rest.
func engines(g *rdf.Graph) map[string]*wdsparql.Engine {
	ts := g.Triples()
	base := rdf.NewGraph()
	for _, t := range ts[:len(ts)/2] {
		base.Add(t)
	}
	return map[string]*wdsparql.Engine{
		"sealed":   wdsparql.NewEngine(g.Clone(), wdsparql.WithQueryCache(64)),
		"no-cache": wdsparql.NewEngine(g.Clone()),
		"overlay":  wdsparql.NewEngine(base, wdsparql.WithQueryCache(64)).ApplyDelta(ts[len(ts)/2:]),
	}
}

// checkTexts checks every text and its variants on every engine.
func checkTexts(t *testing.T, rng *rand.Rand, g *rdf.Graph, texts []string) map[string]*wdsparql.Engine {
	t.Helper()
	engs := engines(g)
	pool := g.Dom()
	for _, text := range texts {
		for _, v := range append([]string{text}, tmplcheck.Variants(rng, text, pool)...) {
			for name, eng := range engs {
				if err := tmplcheck.Check(rng, eng, v); err != nil {
					t.Fatalf("[%s] %s (from %s): %v", name, v, text, err)
				}
			}
		}
	}
	return engs
}

func TestTemplateLookupShapes(t *testing.T) {
	engs := checkTexts(t, rand.New(rand.NewSource(1)), lookupGraph(), lookupShapes)
	st := engs["sealed"].QueryCacheStats()
	if st.TemplateHits == 0 {
		t.Fatalf("want template hits: %+v", st)
	}
}

func TestTemplateRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		q, ok := gen.RandomWDQuery(rng, gen.PatternOpts{
			Depth: 3, Union: trial%3 == 0, Filters: 2, Select: trial%2 == 0,
			IRIs: []rdf.Term{rdf.IRI("a"), rdf.IRI("b"), rdf.IRI("c")}, ConstProb: 2,
		})
		if !ok {
			t.Fatal("query generator exhausted")
		}
		g := rdf.NewGraph()
		nodes, preds := []string{"a", "b", "c", "d"}, []string{"p", "q"}
		for i := 0; i < 6+rng.Intn(10); i++ {
			g.AddTriple(nodes[rng.Intn(4)], preds[rng.Intn(2)], nodes[rng.Intn(4)])
		}
		checkTexts(t, rng, g, []string{q.String()})
	}
}

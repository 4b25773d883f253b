package wdsparql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/rdf"
)

// Engine-level coverage for the FILTER / SELECT surface: PrepareText
// through Rows/Select/Count/All/Ask, the Explain annotations, and the
// stream identity of bind-time pushdown against all-deferred filters.

func filterTestEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(MustParseGraph("a p b .\nc p d .\nb q e .\n"))
}

func TestPrepareSelectFilter(t *testing.T) {
	ctx := context.Background()
	eng := filterTestEngine(t)

	q, err := eng.PrepareText(`SELECT ?x WHERE (((?x p ?y) OPT (?y q ?z)) FILTER BOUND(?z))`)
	if err != nil {
		t.Fatal(err)
	}
	// Only (a,b,e) survives BOUND(?z); projected to ?x.
	var got []string
	for mu := range q.Select(ctx) {
		if len(mu) != 1 {
			t.Fatalf("unprojected variable leaked: %v", mu)
		}
		got = append(got, mu["x"])
	}
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("Select = %v", got)
	}
	if n, err := q.Count(ctx); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	set, err := q.All(ctx)
	if err != nil || set.Len() != 1 || !set.Contains(Mapping{"x": "a"}) {
		t.Fatalf("All = %v, %v", set, err)
	}
	// Rows carry the projected single-slot layout.
	if q.Layout().Width() != 1 {
		t.Fatalf("projected layout width = %d", q.Layout().Width())
	}
	for r := range q.Rows(ctx) {
		if len(r) != 1 {
			t.Fatalf("projected row width = %d", len(r))
		}
	}
}

func TestSelectDistinctDedups(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(MustParseGraph("a p b .\na p c .\nd p b .\n"))

	plain, err := eng.PrepareText(`SELECT ?x WHERE (?x p ?y)`)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := plain.Count(ctx)
	if n != 3 {
		t.Fatalf("projection without DISTINCT must keep duplicates: %d", n)
	}
	dist, err := eng.PrepareText(`SELECT DISTINCT ?x WHERE (?x p ?y)`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for mu := range dist.Select(ctx) {
		got = append(got, mu["x"])
	}
	sort.Strings(got)
	if strings.Join(got, " ") != "a d" {
		t.Fatalf("DISTINCT = %v", got)
	}
}

func TestAskOnFilteredQueries(t *testing.T) {
	ctx := context.Background()
	eng := filterTestEngine(t)

	q, err := eng.PrepareText(`((?x p ?y) FILTER ?x != a)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mu   Mapping
		want bool
	}{
		{Mapping{"x": "c", "y": "d"}, true},
		{Mapping{"x": "a", "y": "b"}, false}, // filtered out
		{Mapping{"x": "c", "y": "b"}, false}, // not a solution
		{Mapping{"x": "c", "y": "nosuchiri"}, false},
	} {
		ok, err := q.Ask(ctx, tc.mu)
		if err != nil || ok != tc.want {
			t.Fatalf("Ask(%v) = %v, %v; want %v", tc.mu, ok, err, tc.want)
		}
	}

	// Ask against a projected query matches on projected rows only.
	sel, err := eng.PrepareText(`SELECT DISTINCT ?x WHERE (?x p ?y)`)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sel.Ask(ctx, Mapping{"x": "c"}); err != nil || !ok {
		t.Fatalf("Ask projected member = %v, %v", ok, err)
	}
	if ok, err := sel.Ask(ctx, Mapping{"x": "b"}); err != nil || ok {
		t.Fatalf("Ask projected non-member = %v, %v", ok, err)
	}
}

// The engine pushes FILTER conjuncts to bind time; the same forest
// compiled with every conjunct deferred to the subtree emit must stream
// the same rows in the same order.
func TestFilterPushdownAblationIdentical(t *testing.T) {
	const src = `SELECT ?x ?z WHERE (((?x p ?y) OPT (?y q ?z)) FILTER ?x != c)`
	q, err := filterTestEngine(t).PrepareText(src)
	if err != nil {
		t.Fatal(err)
	}
	deferred := core.CompileForestOpts(q.forest, q.eng.g, core.CompileOpts{NoFilterPushdown: true}).
		Project(q.an.proj, q.an.distinct)
	collect := func(fp *core.ForestProgram) []string {
		var out []string
		fp.Rows(func(r rdf.Row) bool {
			out = append(out, fmt.Sprint(r))
			return true
		})
		return out
	}
	on, off := collect(q.prog), collect(deferred)
	if len(on) == 0 || strings.Join(on, "|") != strings.Join(off, "|") {
		t.Fatalf("pushdown changed the stream:\non:  %v\noff: %v", on, off)
	}
}

func TestExplainFilterAnnotations(t *testing.T) {
	eng := filterTestEngine(t)
	q, err := eng.PrepareText(
		`SELECT DISTINCT ?x WHERE ((((?x p ?y) OPT (?y q ?z)) FILTER BOUND(?z)) FILTER ?x != c)`)
	if err != nil {
		t.Fatal(err)
	}
	ex := q.Explain()
	if len(ex.Projection) != 1 || ex.Projection[0] != "x" || !ex.Distinct {
		t.Fatalf("projection block: %+v", ex)
	}
	var pushed, deferred bool
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		for _, f := range n.Filters {
			pushed = pushed || strings.HasSuffix(f, "[pushed]")
			deferred = deferred || strings.HasSuffix(f, "[deferred]")
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, tree := range ex.Trees {
		walk(tree)
	}
	if !pushed || !deferred {
		t.Fatalf("filter annotations missing: pushed=%v deferred=%v", pushed, deferred)
	}
}

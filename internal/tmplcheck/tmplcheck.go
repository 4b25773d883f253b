// Package tmplcheck diffs Engine.PrepareText, which prepares a query
// text from its template's analysis and forest, against the direct
// path that parses, translates and compiles the text itself with no
// cache involved. The property test of the root package and wdfuzz
// -template both run it.
package tmplcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"wdsparql"
	"wdsparql/internal/core"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Variants renames the constants of text three ways and returns the
// texts: bijectively onto values drawn from pool (fresh names where it
// runs short), with the second constant made equal to the first, and
// with one constant replaced by an IRI no graph here holds. A text with
// no constant to lift has no variants.
func Variants(rng *rand.Rand, text string, pool []string) []string {
	key, consts, ok := sparql.TemplateKey(text)
	if !ok || consts == nil {
		return nil
	}
	pool = slices.Clone(pool)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	renamed := make([]string, len(consts))
	for i := range renamed {
		if i < len(pool) {
			renamed[i] = pool[i]
		} else {
			renamed[i] = fmt.Sprintf("fresh%d", i)
		}
	}
	variants := [][]string{renamed}
	if len(consts) > 1 {
		equal := slices.Clone(consts)
		equal[1] = equal[0]
		variants = append(variants, equal)
	}
	absent := slices.Clone(consts)
	absent[rng.Intn(len(absent))] = "absent-from-every-graph"
	variants = append(variants, absent)
	var out []string
	for _, cs := range variants {
		t, err := sparql.FillTemplate(key, cs)
		if err != nil {
			panic(fmt.Sprintf("tmplcheck: FillTemplate(%q): %v", key, err))
		}
		out = append(out, t)
	}
	return out
}

// Direct prepares text on g without any cache: parse, the wdpf
// translation, compilation and the SELECT projection.
func Direct(text string, g *rdf.Graph) (ptree.Forest, *core.ForestProgram, error) {
	p, err := sparql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	inner, proj, distinct := p, []string(nil), false
	sel, isSel := p.(sparql.Select)
	if isSel {
		if err := sparql.CheckWellDesigned(p); err != nil {
			return nil, nil, err
		}
		inner, distinct = sel.Where, sel.Distinct
		for _, v := range sel.Vars {
			proj = append(proj, v.Value)
		}
	}
	f, err := ptree.WDPF(inner)
	if err != nil {
		return nil, nil, err
	}
	fp := core.CompileForest(f, g)
	if isSel && (distinct || len(proj) > 0) {
		fp = fp.Project(proj, distinct)
	}
	return f, fp, nil
}

// Check prepares text through eng.PrepareText and diffs the result
// against Direct on eng's graph: the error, the forest, the pattern,
// the explain trees, the row stream byte for byte, Count, and Ask on
// every answer and on perturbations of each (one value swapped for a
// value of dom(G), one variable dropped).
func Check(rng *rand.Rand, eng *wdsparql.Engine, text string) error {
	ctx := context.Background()
	g := eng.Graph()
	q, err := eng.PrepareText(text)
	f, fp, derr := Direct(text, g)
	if (err == nil) != (derr == nil) {
		return fmt.Errorf("PrepareText error %v, direct error %v", err, derr)
	}
	if err != nil {
		p, perr := sparql.Parse(text)
		if perr == nil {
			_, perr = eng.Prepare(p)
		}
		if perr == nil || perr.Error() != err.Error() {
			return fmt.Errorf("PrepareText error %q, the text's own %v", err, perr)
		}
		return nil
	}
	if got, want := q.Forest().String(), f.String(); got != want {
		return fmt.Errorf("forest\n%s\nwant\n%s", got, want)
	}
	if got, want := sparql.Format(q.Pattern()), sparql.Format(sparql.MustParse(text)); got != want {
		return fmt.Errorf("pattern\n%s\nwant\n%s", got, want)
	}
	if got, want := explainTrees(q), explainTrees(eng.MustPrepare(sparql.MustParse(text))); got != want {
		return fmt.Errorf("explain\n%s\nwant\n%s", got, want)
	}
	var want []rdf.Row
	fp.Rows(func(r rdf.Row) bool { want = append(want, r.Clone()); return true })
	var got []rdf.Row
	for r := range q.Rows(ctx) {
		got = append(got, r.Clone())
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		return fmt.Errorf("rows %v, want %v", got, want)
	}
	if n, err := q.Count(ctx); err != nil || n != len(want) {
		return fmt.Errorf("Count = %d, %v; want %d", n, err, len(want))
	}
	// Ask against membership in the direct answer.
	layout, d := fp.Layout(), g.Dict()
	answers := rdf.NewMappingSet()
	for _, r := range want {
		answers.Add(layout.DecodeRow(d, r))
	}
	dom := g.Dom()
	probes := []rdf.Mapping{{}}
	for _, mu := range answers.Slice() {
		probes = append(probes, mu)
		for v := range mu {
			swapped, dropped := mu.Clone(), mu.Clone()
			if len(dom) > 0 {
				swapped[v] = dom[rng.Intn(len(dom))]
			}
			delete(dropped, v)
			probes = append(probes, swapped, dropped)
			break
		}
	}
	for _, mu := range probes {
		ok, err := q.Ask(ctx, mu)
		if err != nil {
			return fmt.Errorf("Ask(%s): %v", mu, err)
		}
		if want := answers.Contains(mu); ok != want {
			return fmt.Errorf("Ask(%s) = %v, want %v", mu, ok, want)
		}
	}
	return nil
}

// explainTrees renders what Explain says of the query's plan, less
// what depends on how it was prepared (the template key) or on the
// Asks run so far.
func explainTrees(q *wdsparql.PreparedQuery) string {
	qp := q.Explain()
	qp.Template, qp.Ask = "", nil
	b, err := json.Marshal(qp)
	if err != nil {
		panic(err)
	}
	return string(b)
}

package bench

import (
	"fmt"
	"time"

	"wdsparql/internal/core"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// E17: the filter-pushdown ablation. Each workload is a FILTER- or
// SELECT-decorated query over the EnumData graph, compiled twice —
// bind-time pushdown on (the default) and off (every conjunct deferred
// to the subtree emit) — and the experiment reports wall time, search
// nodes expanded and candidates cut at bind time side by side. The
// agree column is the correctness gate: both placements must emit
// byte-identical row streams whose deduplicated solution set matches
// the compositional sparql.Eval reference; wdbench exits non-zero when
// any agree cell is false. The point of the table is the nodes column:
// on selective equality filters the pushdown prunes doomed branches
// before recursion, so nodes(on) < nodes(off) while the stream is
// unchanged.

// e17Queries is the workload mix: a selective equality filter on an
// optional chain (the pushdown's best case), a var-var disequality
// inside one BGP, a BOUND guard that can only run at subtree emit
// (deferred either way — the no-win control), and a projected DISTINCT
// over the same chain. hub is a node known to occur as a p0 object, so
// the equality filter selects a real, non-empty slice of the stream.
func e17Queries(hub string) []struct{ name, text string } {
	return []struct{ name, text string }{
		{"eq-push", fmt.Sprintf(`((((?x p0 ?y) OPT ((?y p1 ?z) OPT (?z p2 ?u))) OPT (?y p3 ?w)) FILTER ?y = %s)`, hub)},
		{"ne-varvar", `(((?x p0 ?y) AND (?y p1 ?z)) FILTER ?x != ?z)`},
		{"bound-defer", `((((?x p0 ?y) OPT (?y p1 ?z)) FILTER BOUND(?z)) FILTER ?x != n0)`},
		{"sel-distinct", fmt.Sprintf(`SELECT DISTINCT ?y WHERE ((((?x p0 ?y) OPT ((?y p1 ?z) OPT (?z p2 ?u))) OPT (?y p3 ?w)) FILTER NOT ?y = %s)`, hub)},
	}
}

// E17Hub returns the object of the first p0 triple of g — a constant
// guaranteed to select a non-empty slice of the EnumTree stream.
func E17Hub(g *rdf.Graph) string {
	for _, tr := range g.Triples() {
		if tr.P.Value == "p0" {
			return tr.O.Value
		}
	}
	return "n0"
}

// E17Compile mirrors the engine's prepare path on the internal API:
// unwrap the optional SELECT, translate to a wdPF, compile with the
// requested filter placement (noPush defers every conjunct to the
// subtree emit), apply the projection view.
func E17Compile(q sparql.Pattern, g *rdf.Graph, noPush bool) *core.ForestProgram {
	inner := q
	var proj []string
	distinct := false
	sel, isSel := q.(sparql.Select)
	if isSel {
		inner = sel.Where
		distinct = sel.Distinct
		for _, v := range sel.Vars {
			proj = append(proj, v.Value)
		}
	}
	f, err := ptree.WDPF(inner)
	if err != nil {
		panic(err)
	}
	fp := core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: noPush})
	if isSel {
		fp = fp.Project(proj, distinct)
	}
	return fp
}

// E17FilterPushdown measures bind-time filter pushdown against
// all-deferred evaluation on the EnumData graph, per query shape.
func E17FilterPushdown(n int) *Table {
	t := &Table{
		ID:    "E17",
		Title: fmt.Sprintf("filter pushdown ablation: deferred vs bind-time (n=%d)", n),
		Claim: "pushdown prunes doomed branches before recursion: nodes(on) ≤ nodes(off), streams byte-identical",
		Header: []string{"query", "|G|", "rows", "t(off)", "nodes(off)",
			"t(on)", "nodes(on)", "pruned(on)", "agree"},
	}
	g := EnumData(n)
	for _, w := range e17Queries(E17Hub(g)) {
		q := sparql.MustParse(w.text)
		run := func(noPush bool) (rows []rdf.Row, st hom.SearchStats, d time.Duration) {
			fp := E17Compile(q, g, noPush)
			fp.Tuned(hom.ModeHeuristic, 0, &st).Rows(func(r rdf.Row) bool {
				rows = append(rows, r.Clone())
				return true
			})
			d = e16Timed(func() {
				fp.Tuned(hom.ModeHeuristic, 0, nil).Rows(func(rdf.Row) bool { return true })
			})
			return
		}
		off, stOff, dOff := run(true)
		on, stOn, dOn := run(false)
		agree := e16StreamsEqual(off, on) && stOn.Nodes <= stOff.Nodes
		if agree {
			// The deduplicated stream must match the compositional
			// reference set (projection without DISTINCT may repeat
			// projected rows in the stream).
			fp := E17Compile(q, g, false)
			set := rdf.NewIDMappingSet(fp.Layout())
			fp.Rows(func(r rdf.Row) bool { set.Add(r); return true })
			agree = set.Len() == sparql.EvalID(q, g).Len()
		}
		t.AddRow(w.name, fmt.Sprint(g.Len()), fmt.Sprint(len(on)),
			ms(dOff), fmt.Sprint(stOff.Nodes), ms(dOn), fmt.Sprint(stOn.Nodes),
			fmt.Sprint(stOn.FilterPruned), fmt.Sprint(agree))
	}
	return t
}

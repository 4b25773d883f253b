// Command wdfuzz cross-validates the evaluators and the storage
// backends on randomized instances: for each trial it draws a random
// well-designed pattern and a random graph, evaluates with the
// compositional semantics (both join strategies), the Lemma 1 subtree
// enumeration and the top-down enumeration. The top-down enumeration
// additionally runs against every storage backend — the unsealed
// graph (every triple in the write overlay), a frozen clone, and an
// overlay twin (a frozen base carrying half the triples, the rest in
// the overlay) —
// and the full row streams are diffed byte for byte (content AND
// order), so a backend that returns the right set in the wrong order
// fails a trial.
// The unsealed graph's stream must itself be the compositional solution set:
// no row twice (a UNION forest's cross-tree dedup), no row outside it.
// With -planner (the default) each trial additionally diffs the query
// planner's search modes on every backend: the planned mode must
// reproduce the heuristic row stream byte for byte, and the strict
// plan-following mode must agree on the solution count. With -ask (the
// default) each trial decides wdEVAL for every solution plus perturbed
// non-members under the three algorithms — width-aware default,
// natural, pebble at k = dw(F) — on every backend: all must equal
// membership in the compositional result, and the pebble algorithm at
// k = 1 must never accept a non-member. Any disagreement is printed
// with a reproducible seed and the process exits non-zero.
//
// With -filters > 0 (the default) each trial additionally draws a
// random FILTER-decorated query — every other trial wrapped in a
// SELECT projection, half of those DISTINCT — and diffs its compiled
// row stream across every backend, both planner modes and both filter
// placements (bind-time pushdown vs all-deferred): the streams must be
// byte-identical, and their solution set must match the compositional
// sparql.Eval reference, which applies filters post hoc over the
// unfiltered subevaluations.
//
// Every trial, on every backend, also checks Limit/Offset windowing:
// for m, n ∈ {0, 1, len/2, len+1}, sequentially and on two workers, the
// stream windowed at offset m and limit n must be full[m:m+n] and the
// windowed count (strict mode, as the engine's Count runs it) its
// length. Early stop unwinds through nested searcher runs — every
// child streams off its searcher — so each cut point is an exit path
// of its own.
//
// With -template each trial also prepares its query texts — the
// pattern and, with -filters, the decorated query — through
// Engine.PrepareText, which binds a text's constants into its compiled
// template, and diffs the result against parsing, translating and
// compiling the text directly (forest, pattern, explain trees, rows,
// Count, Ask): the text itself and three renamings of its constants
// (bijective, two made equal, one absent from the graph), on a sealed
// engine and on an ApplyDelta overlay.
//
// Usage:
//
//	wdfuzz [-trials 1000] [-seed 1] [-union] [-depth 3] [-planner] [-ask] [-filters 2] [-template]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"

	"wdsparql"
	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
	"wdsparql/internal/tmplcheck"
)

func main() {
	trials := flag.Int("trials", 500, "number of random instances")
	seed := flag.Int64("seed", 1, "random seed")
	union := flag.Bool("union", false, "generate top-level UNION patterns")
	depth := flag.Int("depth", 3, "operator tree depth")
	planner := flag.Bool("planner", true, "diff planner modes (heuristic vs planned stream, strict count) per trial")
	ask := flag.Bool("ask", true, "diff the three wdEVAL algorithms against the solution set on every backend per trial")
	filters := flag.Int("filters", 2, "max FILTER wraps on the filtered-query dimension (0 disables it)")
	template := flag.Bool("template", false, "diff PrepareText's per-template prepare against the direct prepare path per trial")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	for trial := 0; trial < *trials; trial++ {
		p, ok := gen.RandomWDPattern(rng, gen.PatternOpts{Depth: *depth, Union: *union})
		if !ok {
			fmt.Fprintln(os.Stderr, "wdfuzz: pattern generator exhausted")
			os.Exit(2)
		}
		g := randomGraph(rng)
		if !checkTrial(rng, trial, p, g, *planner, *ask) {
			failures++
			if failures >= 5 {
				break
			}
		}
		texts := []string{p.String()}
		if *filters > 0 {
			q, ok := gen.RandomWDQuery(rng, gen.PatternOpts{
				Depth: *depth, Union: *union, Filters: *filters, Select: trial%2 == 0,
			})
			if !ok {
				fmt.Fprintln(os.Stderr, "wdfuzz: query generator exhausted")
				os.Exit(2)
			}
			if !checkFilterTrial(trial, q, randomGraph(rng), *planner) {
				failures++
				if failures >= 5 {
					break
				}
			}
			texts = append(texts, q.String())
		}
		if *template && !checkTemplateTrial(rng, trial, texts, g) {
			failures++
			if failures >= 5 {
				break
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "wdfuzz: %d failing trial(s)\n", failures)
		os.Exit(1)
	}
	fmt.Printf("wdfuzz: %d trials passed (seed %d)\n", *trials, *seed)
}

func randomGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q"}
	n := 4 + rng.Intn(10)
	for i := 0; i < n; i++ {
		g.AddTriple(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
	}
	return g
}

// collectStream materialises the top-down row stream of the forest
// over one backend as cloned rows. Each backend is compiled separately
// against the same forest; identical dictionary IDs (clones preserve
// them) make the rows directly comparable.
func collectStream(f ptree.Forest, g *rdf.Graph) []rdf.Row {
	var out []rdf.Row
	core.CompileForest(f, g).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// overlayTwin rebuilds g as a sealed base carrying roughly half the
// triples plus a write overlay holding the rest. Replaying the
// triples in insertion order (TriplesID, not the sorted Triples)
// reproduces g's dictionary IDs exactly, so the twin's row stream is
// directly comparable to the unsealed reference — the overlay merge
// must be unobservable just like the base.
func overlayTwin(g *rdf.Graph) *rdf.Graph {
	ids := g.TriplesID()
	og := rdf.NewGraph()
	for i, t := range ids {
		if i == len(ids)/2 {
			og.Freeze()
		}
		tr := g.Dict().DecodeTriple(t)
		og.AddTriple(tr.S.Value, tr.P.Value, tr.O.Value)
	}
	return og
}

// checkSolutionStream checks that a row stream is exactly the solution
// set ref: every row distinct, every decoded row a solution, and as many
// rows as solutions. Comparing lengths alone would pass a stream that
// drops one solution and repeats another.
func checkSolutionStream(rows []rdf.Row, layout *rdf.SlotLayout, g *rdf.Graph, ref *rdf.MappingSet) error {
	seen := rdf.NewIDMappingSet(layout, g.Dict().NumIRIs())
	for i, r := range rows {
		if !seen.Add(r) {
			return fmt.Errorf("row %d %v repeats an earlier row", i, r)
		}
		if mu := layout.DecodeRow(g.Dict(), r); !ref.Contains(mu) {
			return fmt.Errorf("row %d %s is not a compositional solution", i, mu)
		}
	}
	if len(rows) != ref.Len() {
		return fmt.Errorf("%d rows, compositional %d", len(rows), ref.Len())
	}
	return nil
}

// backend is one storage backend of a trial's graph.
type backend struct {
	name string
	g    *rdf.Graph
}

// backendsOf returns g itself (unsealed: every triple in the overlay)
// followed by its frozen clone and its overlay twin.
func backendsOf(g *rdf.Graph) []backend {
	return []backend{{"unsealed", g}, {"frozen", g.Clone().Freeze()}, {"frozen+ovl", overlayTwin(g)}}
}

// windowRows mirrors the engine's Limit/Offset windowing over a
// compiled program: skip offset rows, stop after limit, sequentially or
// on a pool of workers.
func windowRows(fp *core.ForestProgram, workers, offset, limit int) []rdf.Row {
	if limit == 0 {
		return nil
	}
	var out []rdf.Row
	emit := func(r rdf.Row) bool {
		if offset > 0 {
			offset--
			return true
		}
		out = append(out, r.Clone())
		return len(out) < limit
	}
	if workers > 1 {
		fp.RowsParallel(context.Background(), workers, emit)
	} else {
		fp.Rows(emit)
	}
	return out
}

// checkWindows diffs every window of fp's stream against the full
// stream: rows in planned mode (the engine's Rows), counts in strict
// mode (the engine's Count), sequentially and on two workers.
func checkWindows(fp *core.ForestProgram, full []rdf.Row) error {
	sizes := []int{0, 1, len(full) / 2, len(full) + 1}
	planned, strict := fp.Tuned(hom.ModePlanned, 0, nil), fp.Tuned(hom.ModeStrict, 0, nil)
	for _, workers := range []int{1, 2} {
		for _, m := range sizes {
			for _, n := range sizes {
				want := full[min(m, len(full)):min(m+n, len(full))]
				got := windowRows(planned, workers, m, n)
				if !slices.EqualFunc(got, want, slices.Equal) {
					return fmt.Errorf("workers=%d offset=%d limit=%d: window %v, want %v", workers, m, n, got, want)
				}
				if c := len(windowRows(strict, workers, m, n)); c != len(want) {
					return fmt.Errorf("workers=%d offset=%d limit=%d: windowed count %d, want %d", workers, m, n, c, len(want))
				}
			}
		}
	}
	return nil
}

// collectTuned materialises the row stream of an already-compiled
// program under one search mode.
func collectTuned(fp *core.ForestProgram, mode hom.SearchMode) []rdf.Row {
	var out []rdf.Row
	fp.Tuned(mode, 0, nil).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

func checkTrial(rng *rand.Rand, trial int, p sparql.Pattern, g *rdf.Graph, planner, ask bool) bool {
	report := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "trial %d FAILED: %s\npattern: %s\ndata:\n%s",
			trial, fmt.Sprintf(format, args...), p, rdf.FormatGraph(g))
		return false
	}
	ref := sparql.Eval(p, g)
	if hash := sparql.EvalHashJoin(p, g); hash.Len() != ref.Len() {
		return report("hash-join %d vs nested-loop %d", hash.Len(), ref.Len())
	}
	f, err := ptree.WDPF(p)
	if err != nil {
		return report("wdpf: %v", err)
	}
	enum := core.EnumerateForest(f, g)
	if enum.Len() != ref.Len() {
		return report("enumeration %d vs compositional %d", enum.Len(), ref.Len())
	}
	topdown := core.EnumerateTopDownForest(f, g)
	if topdown.Len() != ref.Len() {
		return report("top-down %d vs compositional %d", topdown.Len(), ref.Len())
	}
	for _, mu := range ref.Slice() {
		if !enum.Contains(mu) || !topdown.Contains(mu) {
			return report("missing solution %s", mu)
		}
	}
	// Storage backends must be unobservable: the row stream over the
	// unsealed graph is the reference, and the frozen clone and the overlay
	// twin must reproduce it byte for byte — content and order —
	// through the same compiled enumeration.
	want := collectStream(f, g)
	if err := checkSolutionStream(want, core.CompileForest(f, g).Layout(), g, ref); err != nil {
		return report("row stream: %v", err)
	}
	all := backendsOf(g)
	backends := all[1:]
	for _, b := range backends {
		got := collectStream(f, b.g)
		if len(got) != len(want) {
			return report("%s stream has %d rows, unsealed has %d", b.name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				return report("%s stream diverges at row %d: %v vs %v", b.name, i, got[i], want[i])
			}
		}
	}
	for _, b := range all {
		if err := checkWindows(core.CompileForest(f, b.g), want); err != nil {
			return report("%s: %v", b.name, err)
		}
	}
	// Planner dimension: on every backend, the planned mode must
	// reproduce the heuristic stream byte for byte (the determinism
	// contract behind WithPlanner), and the strict plan-following mode
	// — order-free by design — must agree on the cardinality.
	if planner {
		for _, b := range all {
			fp := core.CompileForest(f, b.g)
			heur := collectTuned(fp, hom.ModeHeuristic)
			planned := collectTuned(fp, hom.ModePlanned)
			if len(planned) != len(heur) {
				return report("%s planner stream has %d rows, heuristic has %d", b.name, len(planned), len(heur))
			}
			for i := range heur {
				if !slices.Equal(planned[i], heur[i]) {
					return report("%s planner stream diverges at row %d: %v vs %v", b.name, i, planned[i], heur[i])
				}
			}
			n := 0
			fp.Tuned(hom.ModeStrict, 0, nil).Rows(func(rdf.Row) bool { n++; return true })
			if n != len(heur) {
				return report("%s strict-mode count %d, heuristic stream has %d rows", b.name, n, len(heur))
			}
		}
	}
	if !ask {
		return true
	}
	// Ask dimension: the three algorithms against the solution set, on
	// every backend.
	dw := core.DominationWidth(f)
	probes := append(ref.Slice(), rdf.Mapping{"x": "a"}, rdf.Mapping{"x": "a", "y": "b"}, rdf.Mapping{})
	nodes := g.Dom()
	for _, mu := range ref.Slice() {
		// Near-members: one value swapped, one variable dropped.
		for v := range mu {
			swapped, dropped := mu.Clone(), mu.Clone()
			swapped[v] = nodes[rng.Intn(len(nodes))]
			delete(dropped, v)
			probes = append(probes, swapped, dropped)
			break
		}
	}
	for _, b := range all {
		fp := core.CompileForestOpts(f, b.g, core.CompileOpts{NoFilterPushdown: true})
		auto := core.NewEvaluator(core.AlgAuto, 0, fp)
		naive := core.NewEvaluator(core.AlgNaive, 0, fp)
		exact := core.NewEvaluator(core.AlgPebble, dw, fp)
		sound := core.NewEvaluator(core.AlgPebble, 1, fp)
		for _, mu := range probes {
			want := ref.Contains(mu)
			if a, n, p := auto.Eval(mu), naive.Eval(mu), exact.Eval(mu); a != want || n != want || p != want {
				return report("[%s] Ask(%s): auto=%v naive=%v pebble(k=dw=%d)=%v, want %v", b.name, mu, a, n, dw, p, want)
			}
			if sound.Eval(mu) && !want {
				return report("[%s] pebble(k=1) accepts the non-member %s", b.name, mu)
			}
		}
	}
	return true
}

// compileFiltered mirrors the engine's prepare path: unwrap the
// optional SELECT, translate to a wdPF, compile with the requested
// filter placement, and apply the projection view.
func compileFiltered(q sparql.Pattern, g *rdf.Graph, noPush bool) (*core.ForestProgram, error) {
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
		return nil, err
	}
	fp := core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: noPush})
	if isSel {
		fp = fp.Project(proj, distinct)
	}
	return fp, nil
}

// checkFilterTrial diffs one FILTER/SELECT-decorated query: the row
// stream must be byte-identical across every backend × both filter
// placements × both planner modes, and its deduplicated solution set
// must match the compositional reference (which filters post hoc).
func checkFilterTrial(trial int, q sparql.Pattern, g *rdf.Graph, planner bool) bool {
	report := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "filter trial %d FAILED: %s\nquery: %s\ndata:\n%s",
			trial, fmt.Sprintf(format, args...), sparql.Format(q), rdf.FormatGraph(g))
		return false
	}
	var want []rdf.Row
	for _, b := range backendsOf(g) {
		for _, noPush := range []bool{false, true} {
			fp, err := compileFiltered(q, b.g, noPush)
			if err != nil {
				return report("compile [%s]: %v", b.name, err)
			}
			modes := []hom.SearchMode{hom.ModeHeuristic}
			if planner {
				modes = append(modes, hom.ModePlanned)
			}
			for _, mode := range modes {
				got := collectTuned(fp, mode)
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					return report("[%s noPush=%v mode=%v] %d rows, reference stream %d",
						b.name, noPush, mode, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						return report("[%s noPush=%v mode=%v] stream diverges at row %d: %v vs %v",
							b.name, noPush, mode, i, got[i], want[i])
					}
				}
			}
			if err := checkWindows(fp, want); err != nil {
				return report("[%s noPush=%v] %v", b.name, noPush, err)
			}
		}
	}
	// Set-level agreement with the compositional semantics. Projection
	// without DISTINCT may repeat projected rows in the stream, so the
	// comparison deduplicates first.
	ref := sparql.EvalID(q, g)
	fp, err := compileFiltered(q, g, false)
	if err != nil {
		return report("compile: %v", err)
	}
	set := rdf.NewIDMappingSet(fp.Layout(), g.Dict().NumIRIs())
	fp.Rows(func(r rdf.Row) bool { set.Add(r); return true })
	if set.Len() != ref.Len() {
		return report("pipeline set %d vs compositional %d", set.Len(), ref.Len())
	}
	dec := set.Decode(g.Dict())
	for _, mu := range ref.Decode(g.Dict()).Slice() {
		if !dec.Contains(mu) {
			return report("pipeline missing solution %s", mu)
		}
	}
	return true
}

// checkTemplateTrial diffs PrepareText against the direct prepare path
// for every text and three renamings of its constants, on a sealed
// engine over g (with a query cache, so exact repeats hit it) and on an
// ApplyDelta overlay carrying half of g.
func checkTemplateTrial(rng *rand.Rand, trial int, texts []string, g *rdf.Graph) bool {
	ts := g.Triples()
	base := rdf.NewGraph()
	for _, t := range ts[:len(ts)/2] {
		base.Add(t)
	}
	engines := []struct {
		name string
		eng  *wdsparql.Engine
	}{
		{"sealed", wdsparql.NewEngine(g.Clone(), wdsparql.WithQueryCache(16))},
		{"overlay", wdsparql.NewEngine(base, wdsparql.WithQueryCache(16)).ApplyDelta(ts[len(ts)/2:])},
	}
	for _, text := range texts {
		for _, v := range append([]string{text}, tmplcheck.Variants(rng, text, g.Dom())...) {
			for _, e := range engines {
				if err := tmplcheck.Check(rng, e.eng, v); err != nil {
					fmt.Fprintf(os.Stderr, "template trial %d FAILED [%s]: %v\ntext: %s (from %s)\ndata:\n%s",
						trial, e.name, err, v, text, rdf.FormatGraph(g))
					return false
				}
			}
		}
	}
	return true
}

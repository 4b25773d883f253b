// Command wdsparql evaluates a well-designed SPARQL graph pattern over
// an RDF graph through the prepared-query engine: the pattern is
// compiled once (wdsparql.Engine.Prepare) and solutions stream as they
// are enumerated, so Ctrl-C — or reaching -limit — stops the
// enumeration immediately instead of after materialising ⟦P⟧G.
//
// Usage:
//
//	wdsparql -query '((?x p ?y) OPT (?y q ?z))' -data graph.nt [flags]
//
// With -mu the command decides wdEVAL for one mapping; without it the
// solution stream is printed (windowed by -limit/-offset, parallelised
// by -workers). -explain prints
// the compiled join order as JSON instead of executing; with -mu it
// decides first and the plan's ask section shows the decision plan of
// dom(µ). The
// -algo flag defaults to "auto", the engine's width-aware wdEVAL
// (budgeted homomorphism tests falling back to the (dw+1)-pebble
// game); "naive" and "pebble" (with -k the domination-width bound)
// force the natural and the Theorem 1 algorithm literally,
// "compositional" the reference semantics and "topdown" the
// enumeration-based check. With -mu, -stats prints the decision loop's
// counters.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"wdsparql"
	"wdsparql/internal/ingest"
	"wdsparql/internal/interrupt"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

func main() {
	query := flag.String("query", "", "graph pattern, e.g. '((?x p ?y) OPT (?y q ?z))'")
	dataPath := flag.String("data", "", "RDF graph file (N-Triples subset); '-' for stdin")
	muArg := flag.String("mu", "", "mapping to test, e.g. 'x=a,y=b'; empty prints all solutions")
	algo := flag.String("algo", "auto", "auto | naive | pebble | compositional | topdown")
	k := flag.Int("k", 1, "domination-width bound for -algo pebble")
	limit := flag.Int("limit", -1, "print at most this many solutions (negative: all)")
	offset := flag.Int("offset", 0, "skip the first n solutions")
	workers := flag.Int("workers", 1, "enumeration worker-pool size")
	stats := flag.Bool("stats", false, "print data statistics and evaluation counters")
	explain := flag.Bool("explain", false, "print the compiled query plan as JSON and exit")
	flag.Parse()

	if *query == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "wdsparql: -query and -data are required")
		flag.Usage()
		os.Exit(2)
	}

	// The first interrupt cancels the context — the prepared-query
	// streams stop at their next yield boundary and the command exits
	// cleanly. A second interrupt (enumeration wedged, output blocked)
	// force-exits immediately.
	ctx, stop := interrupt.Context(context.Background())
	defer stop()

	pattern, err := sparql.Parse(*query)
	if err != nil {
		fatal(err)
	}
	g, err := readGraph(*dataPath)
	if err != nil {
		fatal(err)
	}

	alg := wdsparql.AlgAuto
	switch *algo {
	case "naive":
		alg = wdsparql.AlgNaive
	case "pebble":
		alg = wdsparql.AlgPebble
	}
	engine := wdsparql.NewEngine(g,
		wdsparql.WithAlgorithm(alg), wdsparql.WithPebbleK(*k),
		wdsparql.WithWorkers(*workers))

	if *stats {
		fmt.Fprintf(os.Stderr, "data: %s\n", rdf.Stats(g))
	}
	q, err := engine.Prepare(pattern)
	if err != nil {
		fatal(err)
	}

	if *explain {
		if *muArg != "" {
			// Decide first, so the plan's ask section shows the decision
			// plan of dom(µ) and what its tests did.
			mu, err := parseMu(*muArg)
			if err != nil {
				fatal(err)
			}
			if _, err := q.Ask(ctx, mu); err != nil {
				fatal(err)
			}
		}
		out, err := json.MarshalIndent(q.Explain(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	if *muArg == "" {
		printSolutions(ctx, q, g, *algo, *limit, *offset)
		return
	}
	mu, err := parseMu(*muArg)
	if err != nil {
		fatal(err)
	}
	ans, err := decide(ctx, q, g, mu, *algo, *stats)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("µ %s ⟦P⟧G\n", map[bool]string{true: "∈", false: "∉"}[ans])
	if !ans {
		os.Exit(1)
	}
}

// readGraph loads -data through the parallel ingest pipeline, the
// same load as wdserve -data.
func readGraph(path string) (*rdf.Graph, error) {
	if path == "-" {
		return ingest.Load(os.Stdin, ingest.Options{})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ingest.Load(f, ingest.Options{})
}

func parseMu(s string) (rdf.Mapping, error) {
	mu := rdf.NewMapping()
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("wdsparql: bad binding %q (want var=iri)", part)
		}
		mu[strings.TrimPrefix(strings.TrimSpace(kv[0]), "?")] = strings.TrimSpace(kv[1])
	}
	return mu, nil
}

func decide(ctx context.Context, q *wdsparql.PreparedQuery, g *rdf.Graph, mu rdf.Mapping, algo string, stats bool) (bool, error) {
	switch algo {
	case "compositional":
		return sparql.Contains(q.Pattern(), g, mu), nil
	case "topdown":
		set, err := q.All(ctx)
		if err != nil {
			return false, err
		}
		return set.Contains(mu), nil
	case "auto", "naive", "pebble":
		ans, err := q.Ask(ctx, mu)
		if ask := q.Explain().Ask; stats && err == nil {
			c, label := ask.Counters, ask.Algorithm
			if ask.PebbleK > 0 {
				label = fmt.Sprintf("pebble(k=%d)", ask.PebbleK)
			}
			fmt.Fprintf(os.Stderr, "%s: extension-tests=%d budget-exhaustions=%d pebble-fallbacks=%d search-probes=%d assignments=%d",
				label, c.ExtensionTests, c.BudgetExhaustions, c.PebbleFallbacks, c.SearchProbes, c.PebbleAssignments)
			if ask.Width > 0 {
				fmt.Fprintf(os.Stderr, " dw=%d", ask.Width)
			}
			fmt.Fprintln(os.Stderr)
		}
		return ans, err
	}
	return false, fmt.Errorf("wdsparql: unknown algorithm %q", algo)
}

func printSolutions(ctx context.Context, q *wdsparql.PreparedQuery, g *rdf.Graph, algo string, limit, offset int) {
	if algo == "compositional" {
		// The reference semantics materialise ⟦P⟧G, so the window is
		// applied to the materialised set rather than the enumeration.
		sols := sparql.EvalHashJoin(q.Pattern(), g).Slice()
		if offset > len(sols) {
			offset = len(sols)
		}
		sols = sols[offset:]
		if limit >= 0 && limit < len(sols) {
			sols = sols[:limit]
		}
		for _, mu := range sols {
			fmt.Println(mu)
		}
		fmt.Fprintf(os.Stderr, "%d solution(s)\n", len(sols))
		return
	}
	n := 0
	for mu := range q.Select(ctx, wdsparql.Limit(limit), wdsparql.Offset(offset)) {
		fmt.Println(mu)
		n++
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %d solution(s)\n", n)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%d solution(s)\n", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

package wdsparql

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Tests of the lazily built join plan: a prepared query plans its nodes
// on the first strict (order-free) execution or Explain, never at
// Prepare, and every surface that reads a plan sees the same plan
// whichever of them builds it. (That the lazy plan equals the
// compile-time one is pinned in internal/core.)

// planEagerly builds every node's plan right after Prepare, before any
// execution: the forest's Explain reads every plan.
func planEagerly(q *PreparedQuery) *PreparedQuery {
	q.prog.Explain()
	return q
}

func explainJSON(t *testing.T, q *PreparedQuery) string {
	t.Helper()
	b, err := json.Marshal(q.Explain())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// observePlanned runs everything that reads a plan, in the order a
// served query would first meet it: strict counts over a few windows,
// scan-based membership verdicts, then Explain.
func observePlanned(t *testing.T, q *PreparedQuery, probes []Mapping) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	for _, w := range [][]ExecOption{nil, {Limit(2)}, {Offset(1)}, {Offset(1), Limit(2)}} {
		n, err := q.Count(ctx, w...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint("count ", n))
	}
	for _, mu := range probes {
		ok, err := q.askByScan(ctx, mu)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint("ask ", mu, " ", ok))
	}
	return append(out, explainJSON(t, q))
}

// Over random queries — filtered and SELECT ones included — on every
// backend twin, a query planned by its first strict Count and one
// planned at Prepare agree byte for byte on strict counts (windowed or
// not), scan-based Ask verdicts and Explain.
func TestLazyPlanMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(2323))
	ctx := context.Background()
	opts := gen.PatternOpts{
		Preds: []rdf.Term{rdf.IRI("p0"), rdf.IRI("p1")},
		IRIs:  []rdf.Term{rdf.IRI("n0"), rdf.IRI("n1")},
	}
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		opts.Depth, opts.Union = 2+trial%2, trial%3 == 0
		opts.Filters, opts.Select = trial%3, trial%2 == 1
		p, ok := gen.RandomWDQuery(rng, opts)
		if !ok {
			t.Fatal("query generator exhausted")
		}
		n := 3 + trial%5
		g := gen.Random(n, min(6+rng.Intn(24), n*n), 2, int64(trial))
		members := sparql.Eval(p, g).Slice()
		probes := append(members, perturb(rng, members, g.Dom())...)
		for _, b := range askBackends(g) {
			lazy := b.eng.MustPrepare(p)
			eager := planEagerly(b.eng.MustPrepare(p))
			rows := 0
			for range lazy.Rows(ctx) { // an ordered stream reads no plan
				rows++
			}
			got, want := observePlanned(t, lazy, probes), observePlanned(t, eager, probes)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d [%s]: lazy plan diverges from eager\nquery: %s\nlazy:  %q\neager: %q",
					trial, b.name, sparql.Format(p), got, want)
			}
			if got[0] != fmt.Sprint("count ", rows) {
				t.Fatalf("trial %d [%s]: strict %s, stream has %d rows", trial, b.name, got[0], rows)
			}
		}
	}
}

// Eight goroutines race the first Count and the first Explain of one
// fresh prepared query: the plan is built once, every count equals the
// stream length and every Explain is the same document (run under
// -race in CI).
func TestLazyPlanFirstUseRace(t *testing.T) {
	const query = `(((((?x p ?y) OPT (?x q ?a)) OPT (?x r ?b)) OPT (?x s ?c)) FILTER ?y != o7)`
	e := starEngine(64, false, "q", "r", "s")
	want := 0
	for range prepareOn(t, e, query).Rows(context.Background()) {
		want++
	}
	q := prepareOn(t, e, query)
	const racers = 8
	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		counts   [racers]int
		explains [racers]string
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			count := func() {
				n, err := q.Count(context.Background())
				if err != nil {
					t.Error(err)
				}
				counts[i] = n
			}
			explain := func() {
				b, err := json.Marshal(q.Explain())
				if err != nil {
					t.Error(err)
				}
				explains[i] = string(b)
			}
			if i%2 == 0 {
				count()
				explain()
			} else {
				explain()
				count()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < racers; i++ {
		if counts[i] != want {
			t.Fatalf("racer %d counted %d rows, the stream has %d", i, counts[i], want)
		}
		if explains[i] != explains[0] {
			t.Fatalf("racer %d explains\n%s\nracer 0 explains\n%s", i, explains[i], explains[0])
		}
	}
}

// A prepare-cache miss compiles the forest and plans nothing: the
// allocation count of PrepareText on a 3-arm OPT star with an equality
// FILTER is gated. Planning every node at compile time — the bound and
// domain maps, steps and order of four plans — allocates 187 objects
// per miss on this query (Go 1.24); lazy planning allocates 154. Since
// PrepareText prepares per template, the analysis is found by the
// template key instead of by parsing and formatting the text, and the
// miss instantiates the template's forest and compiles it: 84.
func TestPrepareMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const query = `(((((?x p ?y) OPT (?x q ?a)) OPT (?x r ?b)) OPT (?x s ?c)) FILTER ?y = o7)`
	eng := starEngine(1<<10, false, "q", "r", "s") // no query cache: every PrepareText misses
	prepare := func() {
		if _, err := eng.PrepareText(query); err != nil {
			t.Fatal(err)
		}
	}
	prepare()
	if allocs := testing.AllocsPerRun(20, prepare); allocs > 85 {
		t.Fatalf("a prepare miss allocates %.0f objects, want ≤ 85", allocs)
	}
}

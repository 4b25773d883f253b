package wdsparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Tests of the width-aware Ask: the paper's contract as a property over
// random queries, graphs and storage backends, a fixed truth table on
// the paper's own families, and the two bugs the rewrite closes (the
// 64-free-variable panic, the uncancellable refutation).

type askBackend struct {
	name string
	eng  *Engine
}

// askBackends builds one engine per storage backend over g's triples:
// frozen, and an overlay twin whose frozen base holds half the triples
// and whose live delta holds the rest.
func askBackends(g *Graph, opts ...Option) []askBackend {
	ts := g.Triples()
	base, delta := ts[:len(ts)/2], ts[len(ts)/2:]
	return []askBackend{
		{"frozen", NewEngine(rdf.GraphOf(ts...), opts...)},
		{"frozen+ovl", NewEngine(rdf.GraphOf(base...), opts...).ApplyDelta(delta)},
	}
}

// perturb returns near-members of the solution set: each member with one
// value swapped for another element of dom(G), and with one variable
// dropped — the mappings most likely to fool a decision procedure.
func perturb(rng *rand.Rand, members []Mapping, dom []string) []Mapping {
	var out []Mapping
	for _, mu := range members {
		for v := range mu {
			swapped, dropped := rdf.NewMapping(), rdf.NewMapping()
			for k, val := range mu {
				swapped[k] = val
				if k != v {
					dropped[k] = val
				}
			}
			swapped[v] = dom[rng.Intn(len(dom))]
			out = append(out, swapped, dropped)
			break // one variable per member: map order picks it
		}
	}
	return out
}

// The paper's contract. On every trial: (a) the default algorithm, the
// natural algorithm and membership in the compositional ⟦P⟧G agree on
// every backend; (b) the pebble algorithm at any k never accepts a
// non-member (Theorem 1, soundness); (c) at k = dw(P) it equals the
// natural algorithm (Theorem 1, completeness).
func TestAskPaperContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1712))
	ctx := context.Background()
	opts := gen.PatternOpts{
		Preds: []rdf.Term{rdf.IRI("p0"), rdf.IRI("p1")},
		IRIs:  []rdf.Term{rdf.IRI("n0"), rdf.IRI("n1")},
	}
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		opts.Depth, opts.Union = 2+trial%2, trial%3 == 0
		opts.Filters = 0
		if trial%4 == 3 {
			opts.Filters = 1 // Ask's scan fallback must honour (a) too
		}
		p, ok := gen.RandomWDQuery(rng, opts)
		if !ok {
			t.Fatal("query generator exhausted")
		}
		n := 3 + trial%5
		g := gen.Random(n, min(6+rng.Intn(24), n*n), 2, int64(trial)) // at most half of the n·n·2 possible triples
		ref := sparql.Eval(p, g)
		probes := append(ref.Slice(), perturb(rng, ref.Slice(), g.Dom())...)
		probes = append(probes, Mapping{"x": "n0"}, Mapping{"x": "n0", "y": "n1"}, Mapping{})
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d: %s\nquery: %s\ndata:\n%s", trial, fmt.Sprintf(format, args...), sparql.Format(p), rdf.FormatGraph(g))
		}

		auto, naive := askBackends(g), askBackends(g, WithAlgorithm(AlgNaive))
		dw := 0
		for bi := range auto {
			qa, err := auto[bi].eng.Prepare(p)
			if err != nil {
				fail("prepare: %v", err)
			}
			qn := naive[bi].eng.MustPrepare(p)
			if opts.Filters == 0 {
				dw = qa.DominationWidth()
			}
			for _, mu := range probes {
				want := ref.Contains(mu)
				if got, err := qa.Ask(ctx, mu); err != nil || got != want {
					fail("[%s] default Ask(%s) = %v, %v; want %v", auto[bi].name, mu, got, err, want)
				}
				if got, err := qn.Ask(ctx, mu); err != nil || got != want {
					fail("[%s] AlgNaive Ask(%s) = %v, %v; want %v", auto[bi].name, mu, got, err, want)
				}
			}
		}
		if opts.Filters > 0 {
			continue // the pebble algorithm decides bare patterns only
		}
		f, err := ToForest(p)
		if err != nil {
			fail("wdpf: %v", err)
		}
		for k := 1; k <= dw+1; k++ {
			for _, b := range askBackends(g, WithAlgorithm(AlgPebble), WithPebbleK(k)) {
				q := b.eng.MustPrepare(p)
				for _, mu := range probes {
					want := ref.Contains(mu)
					got, err := q.Ask(ctx, mu)
					if err != nil || (got && !want) || (k >= dw && got != want) {
						fail("[%s] AlgPebble k=%d (dw=%d) Ask(%s) = %v, %v; want %v", b.name, k, dw, mu, got, err, want)
					}
				}
			}
		}
		// An unsealed graph never reaches an Engine (NewEngine folds its
		// overlay): check the evaluators on it directly.
		for _, mu := range probes {
			want := ref.Contains(mu)
			if core.Eval(core.AlgAuto, 0, f, g, mu) != want || core.Eval(core.AlgNaive, 0, f, g, mu) != want ||
				core.Eval(core.AlgPebble, dw, f, g, mu) != want {
				fail("[map] evaluators disagree with ⟦P⟧G on %s (want %v)", mu, want)
			}
		}
	}
}

// askAll asks µ under the three algorithms (the pebble one at bound k)
// and requires every answer to equal want.
func askAll(t *testing.T, label string, f Forest, g *Graph, mu Mapping, k int, want bool) *PreparedQuery {
	t.Helper()
	var auto *PreparedQuery
	for _, opts := range [][]Option{nil, {WithAlgorithm(AlgNaive)}, {WithAlgorithm(AlgPebble), WithPebbleK(k)}} {
		q := NewEngine(rdf.GraphOf(g.Triples()...), opts...).PrepareForest(f)
		got, err := q.Ask(context.Background(), mu)
		if err != nil || got != want {
			t.Fatalf("%s %v: Ask = %v, %v; want %v", label, q.Explain().Ask.Algorithm, got, err, want)
		}
		if opts == nil {
			auto = q
		}
	}
	return auto
}

// A fixed truth table on the paper's families. F_k (dw = 1): µ is a
// member exactly when the q-structure is absent, whatever the clique
// does. T'_k (bw = 1): the child folds onto the root's self-loop, so µ
// never is. CliqueChild(k) (dw = k−1): the width is not small and the
// default must stay correct all the same.
func TestAskTruthTable(t *testing.T) {
	for k := 2; k <= 6; k++ {
		for _, c := range []struct {
			name          string
			withQ, clique bool
		}{{"member", false, false}, {"nonmember", true, false}, {"clique", false, true}, {"both", true, true}} {
			label := fmt.Sprintf("F_%d/%s", k, c.name)
			q := askAll(t, label, gen.Fk(k), gen.FkData(k, 12, c.withQ, c.clique), gen.FkMu(), 1, !c.withQ)
			ask := q.Explain().Ask
			if k >= 4 && c.name == "member" && (ask.Counters.PebbleFallbacks == 0 || ask.Width != 1) {
				t.Fatalf("%s: the K_%d refutation should exhaust its budget and fall back at dw = 1, got %+v", label, k, ask)
			}
			if c.withQ && ask.Counters.BudgetExhaustions != 0 {
				t.Fatalf("%s: cheapest-first must reject on the one-triple child before touching the clique, got %+v", label, ask.Counters)
			}
		}
		tk := ptree.Forest{gen.TkPrime(k)}
		askAll(t, fmt.Sprintf("T'_%d", k), tk, gen.TkPrimeData(12, max(k, 3)), Mapping{"y": "b"}, 1, false)
	}
	for k := 3; k <= 5; k++ {
		f := ptree.Forest{gen.CliqueChild(k)}
		for _, planted := range []bool{false, true} {
			g := gen.Turan(12, k-1, "e")
			if planted {
				g = gen.TuranWithClique(12, k-1, "e")
			}
			g.AddTriple("u0", "p0", "u0")
			for i := 0; i < 12; i++ {
				g.AddTriple("u0", "e0", fmt.Sprintf("n%d", i))
			}
			askAll(t, fmt.Sprintf("CliqueChild(%d)/planted=%v", k, planted), f, g, Mapping{"u": "u0"}, k-1, !planted)
		}
	}
}

// longChild is a two-node tree whose child is a q-chain of n fresh
// variables hanging off ?y.
func longChild(n int) Forest {
	child := []rdf.Triple{rdf.T(rdf.Var("y"), rdf.IRI("q"), rdf.Var("v1"))}
	for i := 1; i < n; i++ {
		child = append(child, rdf.T(rdf.Var(fmt.Sprintf("v%d", i)), rdf.IRI("q"), rdf.Var(fmt.Sprintf("v%d", i+1))))
	}
	return Forest{ptree.FromSpec(ptree.Spec{
		Pattern:  []rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y"))},
		Children: []ptree.Spec{{Pattern: child}},
	})}
}

// More than 64 free variables used to panic inside the pebble kernel.
// Now an explicit AlgPebble reports it, and the default decides the
// test by homomorphism search alone.
func TestAskMoreThan64FreeVariables(t *testing.T) {
	ctx := context.Background()
	mu := Mapping{"x": "a", "y": "b"}
	open := MustParseGraph("a p b .\nb q c .\nc q d .\n") // the chain runs out: µ is maximal
	loop := MustParseGraph("a p b .\nb q c .\nc q c .\n") // the chain wraps: µ extends
	for _, c := range []struct {
		g    *Graph
		want bool
	}{{open, true}, {loop, false}} {
		q := NewEngine(c.g).PrepareForest(longChild(65))
		if got, err := q.Ask(ctx, mu); err != nil || got != c.want {
			t.Fatalf("default Ask = %v, %v; want %v", got, err, c.want)
		}
		if note := q.Explain().Ask.Domains[0].Tests[0].Note; note == "" {
			t.Fatal("explain should say why the test has no pebble form")
		}
		_, err := NewEngine(c.g, WithAlgorithm(AlgPebble)).PrepareForest(longChild(65)).Ask(ctx, mu)
		if !errors.Is(err, pebble.ErrTooLarge) {
			t.Fatalf("AlgPebble Ask error = %v, want ErrTooLarge", err)
		}
		if got, err := NewEngine(c.g, WithAlgorithm(AlgPebble)).PrepareForest(longChild(64)).Ask(ctx, mu); err != nil || got != c.want {
			t.Fatalf("AlgPebble at 64 free variables: Ask = %v, %v; want %v", got, err, c.want)
		}
	}
}

// One K_7 refutation in T(24, 6) runs for seconds; Ask must give up at
// its deadline, from inside the search, and leave nothing behind.
func TestAskHonoursDeadline(t *testing.T) {
	q := NewEngine(gen.FkData(7, 24, false, false), WithAlgorithm(AlgNaive)).PrepareForest(gen.Fk(7))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := q.Ask(ctx, gen.FkMu())
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 100*time.Millisecond {
		t.Fatalf("Ask returned %v after %v; want DeadlineExceeded within 100ms", err, took)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// A warmed Ask draws everything from its cached plan and its pools.
func TestAskWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ctx, mu := context.Background(), gen.FkMu()
	q := NewEngine(gen.FkData(4, 24, false, false)).PrepareForest(gen.Fk(4))
	for i := 0; i < 3; i++ {
		if ok, err := q.Ask(ctx, mu); err != nil || !ok {
			t.Fatalf("warm-up Ask = %v, %v", ok, err)
		}
	}
	if q.Explain().Ask.Counters.PebbleFallbacks == 0 {
		t.Fatal("the F_4 member should exercise the pebble fallback")
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = q.Ask(ctx, mu) }); allocs > 2 {
		t.Fatalf("warmed Ask allocates %.0f objects per call, want O(1) ≤ 2", allocs)
	}
}

// The first Ask of a new dom(µ) builds a decision plan and compiles
// nothing: the witness nodes, the tests and the games are the prepared
// program's. Compiling a pattern and a pebble game per plan, as a
// private evaluator did, cost 108 objects here (Go 1.24).
func TestAskFirstDomainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const query = `(((?x p ?y) OPT (?x q ?a)) OPT (?x r ?b)) OPT (?x s ?c)`
	eng := starEngine(1<<10, false, "q", "r", "s")
	ctx := context.Background()
	warm, fresh := Mapping{"x": "s1", "y": "o1"}, Mapping{"x": "s1", "y": "o1", "a": "q1"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		q := prepareOn(t, eng, query)
		if ok, err := q.Ask(ctx, warm); err != nil || ok {
			t.Fatalf("warm-up Ask = %v, %v; want false: every arm extends", ok, err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		ok, err := q.Ask(ctx, fresh)
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
		if err != nil || ok {
			t.Fatalf("Ask = %v, %v; want false: arms r and s extend", ok, err)
		}
	}
	if allocs := total / runs; allocs > 21 {
		t.Fatalf("the first Ask of a new domain allocates %d objects, want ≤ 21", allocs)
	}
}

// An AlgPebble engine without a valid k fails every Ask; Explain shows
// that error in its ask section instead of panicking.
func TestExplainAskCarriesAskError(t *testing.T) {
	q := NewEngine(gen.FkData(3, 12, false, false), WithAlgorithm(AlgPebble), WithPebbleK(0)).PrepareForest(gen.Fk(3))
	_, err := q.Ask(context.Background(), gen.FkMu())
	if err == nil {
		t.Fatal("Ask with WithPebbleK(0) should fail")
	}
	if ap := q.Explain().Ask; ap.Error != err.Error() || ap.Algorithm != "pebble" {
		t.Fatalf("ask section = %+v, want Ask's error %q", ap, err)
	}
}

// The first Ask and the first UNION drain of one prepared query race
// for the same compiled nodes: the Ask view and the membership view
// each build plans over them and compile a child's pebble game once.
// Run under -race.
func TestAskRacesUnionDrain(t *testing.T) {
	ts := starTriples(64, "q")
	for i := 0; i < 64; i += 2 { // subjects without a q arm: rows both arms answer
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("t%d", i)), rdf.IRI("p"), rdf.IRI(fmt.Sprintf("o%d", i))))
	}
	eng := NewEngine(rdf.GraphOf(ts...))
	const query = `(((?x p ?y) OPT (?x q ?z)) UNION (?x p ?y))`
	ctx := context.Background()
	mus := []Mapping{{"x": "t0", "y": "o0"}, {"x": "s1", "y": "o1"}, {"x": "s1", "y": "o1", "z": "q1"}, {"x": "t0", "y": "o0", "z": "q0"}}
	want := []bool{true, true, true, false}
	wantRows := 64 + 32 + 64 // the first arm's rows, then the second's s rows; its t rows repeat
	for round := 0; round < 4; round++ {
		q := prepareOn(t, eng, query)
		if q.Explain().Dedup != "membership" {
			t.Fatal("the union should dedup by membership")
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if w%2 == 0 {
					if got, err := q.Ask(ctx, mus[w/2]); err != nil || got != want[w/2] {
						t.Errorf("Ask(%v) = %v, %v; want %v", mus[w/2], got, err, want[w/2])
					}
					return
				}
				n := 0
				for range q.Rows(ctx) {
					n++
				}
				if n != wantRows {
					t.Errorf("drain streamed %d rows, want %d", n, wantRows)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

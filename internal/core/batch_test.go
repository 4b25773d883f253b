package core_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// newEvaluator compiles f for decisions and returns its view.
func newEvaluator(alg core.Algorithm, k int, f ptree.Forest, g *rdf.Graph) *core.Evaluator {
	return core.NewEvaluator(alg, k, core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: true}))
}

// candidateMus returns a batch of mappings with mixed domains: all
// matches of the root pattern of each tree, plus some junk mappings
// (wrong values, wrong domains) that must evaluate to false or hit
// the no-witness path.
func candidateMus(f ptree.Forest, g *rdf.Graph) []rdf.Mapping {
	var mus []rdf.Mapping
	for _, t := range f {
		root := ptree.NewSubtree(t, t.Root.ID)
		mus = append(mus, hom.FindAll(root.Pattern(), g, 8)...)
	}
	mus = append(mus,
		rdf.Mapping{"x": "no-such-iri", "y": "b"},
		rdf.Mapping{"completely": "unrelated"},
		rdf.NewMapping(),
	)
	return mus
}

// EvalAll and EvalAllParallel agree with per-mapping Eval for both
// algorithms on the paper's families and on random data.
func TestEvalAllAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type instance struct {
		f ptree.Forest
		g *rdf.Graph
	}
	var instances []instance
	for k := 2; k <= 3; k++ {
		instances = append(instances,
			instance{gen.Fk(k), gen.FkData(k, 12, false, false)},
			instance{gen.Fk(k), gen.FkData(k, 12, true, true)},
			instance{ptree.Forest{gen.TkPrime(k)}, gen.TkPrimeData(10, k)},
		)
	}
	instances = append(instances, instance{gen.Fk(2), gen.Random(10, 40, 3, rng.Int63())})
	for i, in := range instances {
		mus := candidateMus(in.f, in.g)
		for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
			want := make([]bool, len(mus))
			for j, mu := range mus {
				want[j] = core.Eval(alg, 1, in.f, in.g, mu)
			}
			got := newEvaluator(alg, 1, in.f, in.g).EvalAll(mus)
			for j := range mus {
				if got[j] != want[j] {
					t.Fatalf("instance %d, %s: EvalAll[%d] = %v, Eval = %v (µ=%v)",
						i, alg, j, got[j], want[j], mus[j])
				}
			}
			gotPar := newEvaluator(alg, 1, in.f, in.g).EvalAllParallel(mus, 4)
			for j := range mus {
				if gotPar[j] != want[j] {
					t.Fatalf("instance %d, %s: EvalAllParallel[%d] = %v, Eval = %v (µ=%v)",
						i, alg, j, gotPar[j], want[j], mus[j])
				}
			}
		}
	}
}

// A single Evaluator reused across calls (cache warm) stays correct.
func TestEvaluatorReuse(t *testing.T) {
	f := gen.Fk(2)
	g := gen.FkData(2, 12, false, false)
	mu := gen.FkMu()
	for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
		e := newEvaluator(alg, 1, f, g)
		want := core.Eval(alg, 1, f, g, mu)
		for i := 0; i < 3; i++ {
			if got := e.Eval(mu); got != want {
				t.Fatalf("%s: reuse iteration %d: got %v, want %v", alg, i, got, want)
			}
		}
	}
}

// The batched path must preserve the headline E3 acceptance.
func TestEvalAllE3Acceptance(t *testing.T) {
	for k := 2; k <= 3; k++ {
		f := gen.Fk(k)
		g := gen.FkData(k, 12, false, false)
		mus := []rdf.Mapping{gen.FkMu()}
		if got := newEvaluator(core.AlgNaive, 1, f, g).EvalAll(mus); !got[0] {
			t.Fatalf("k=%d: naive EvalAll rejected µ", k)
		}
		if got := newEvaluator(core.AlgPebble, 1, f, g).EvalAll(mus); !got[0] {
			t.Fatalf("k=%d: pebble EvalAll rejected µ", k)
		}
	}
}

// The decision loop's counters tell the algorithms apart on an F_4
// member: the natural algorithm refutes both of T1's children and
// accepts there; the default exhausts the clique test's budget, consults
// dw(F_4) = 1, loses T1 to the 2-pebble game's win and accepts at T2; the
// nonmember is rejected on each tree's one-triple child, cheapest
// first, without touching the clique.
func TestEvaluatorCountersAndWidth(t *testing.T) {
	f, mu := gen.Fk(4), gen.FkMu()
	member := gen.FkData(4, 24, false, false)
	naive := newEvaluator(core.AlgNaive, 0, f, member)
	if !naive.Eval(mu) {
		t.Fatal("naive rejects the member")
	}
	naiveSt := evalTotals(naive)
	if naiveSt != (core.EvalStats{ExtensionTests: 2, SearchProbes: naiveSt.SearchProbes}) || naive.Width() != 0 {
		t.Fatalf("naive: %+v, width %d", naiveSt, naive.Width())
	}
	auto := newEvaluator(core.AlgAuto, 0, f, member)
	if auto.Width() != 0 {
		t.Fatal("dw must not be computed before a search exhausts")
	}
	if !auto.Eval(mu) {
		t.Fatal("auto rejects the member")
	}
	// T1 is rejected by the pebble game's win on the clique child, T2
	// accepts: three tests, one exhaustion, one fallback.
	// Its search stopped at the budget, short of the naive refutation.
	if st := evalTotals(auto); st.ExtensionTests != 3 || st.BudgetExhaustions != 1 || st.PebbleFallbacks != 1 ||
		st.PebbleAssignments == 0 || st.SearchProbes == 0 || st.SearchProbes >= naiveSt.SearchProbes || auto.Width() != 1 {
		t.Fatalf("auto: %+v, width %d (naive searches spent %d)", st, auto.Width(), naiveSt.SearchProbes)
	}
	if tests := auto.Tests(); tests[0].FreeVars != 1 || tests[1].FreeVars != 4 || tests[1].Stats.PebbleFallbacks != 1 {
		t.Fatalf("T1's tests should run one-triple child first, clique second: %+v", tests)
	}
	reject := newEvaluator(core.AlgAuto, 0, f, gen.FkData(4, 24, true, false))
	if reject.Eval(mu) {
		t.Fatal("auto accepts the nonmember")
	}
	if st := evalTotals(reject); st != (core.EvalStats{ExtensionTests: 2, SearchProbes: st.SearchProbes}) {
		t.Fatalf("nonmember: %+v, want one test per tree", st)
	}
	// T1's one-triple child is one search node walked without a count.
	if st := reject.Tests()[0].Stats; st != (core.EvalStats{ExtensionTests: 1, SearchProbes: 1}) {
		t.Fatalf("nonmember, T1's first test: %+v, want one test at one probe unit", st)
	}
}

// One evaluator serves concurrent Decide calls over mixed domains: the
// plan cache, the width resolution and the scratch pools are shared.
func TestEvaluatorConcurrentDecide(t *testing.T) {
	f := gen.Fk(4)
	g := gen.FkData(4, 12, false, false)
	mus := candidateMus(f, g)
	want := newEvaluator(core.AlgNaive, 0, f, g).EvalAll(mus)
	for _, alg := range []core.Algorithm{core.AlgAuto, core.AlgPebble} {
		e := newEvaluator(alg, 1, f, g)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 5; round++ {
					for i, mu := range mus {
						if got, err := e.Decide(context.Background(), mu); err != nil || got != want[i] {
							t.Errorf("%v: Decide(%v) = %v, %v; want %v", alg, mu, got, err, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Decisions compile nothing of their own: every program a cached plan
// runs — an Ask view's and a UNION's membership views' alike — is one
// of the ForestProgram's node programs, by pointer.
func TestDecisionsRunNodePrograms(t *testing.T) {
	f, err := ptree.WDPF(sparql.MustParse(`(((?x p ?y) OPT ((?y q ?z) OPT (?z r ?w))) UNION ((?x p ?y) OPT (?x s ?v)))`))
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.IRI
	g := rdf.GraphOf(
		rdf.T(iri("a"), iri("p"), iri("b")), // answered by both trees: a membership decision
		rdf.T(iri("c"), iri("p"), iri("d")), rdf.T(iri("d"), iri("q"), iri("e")), rdf.T(iri("e"), iri("r"), iri("f")),
		rdf.T(iri("h"), iri("p"), iri("i")), rdf.T(iri("h"), iri("s"), iri("j")),
	)
	fp := core.CompileForest(f, g)
	rows := 0
	fp.Rows(func(rdf.Row) bool { rows++; return true })
	if rows != 5 {
		t.Fatalf("the union streams %d rows, want 5", rows)
	}
	views := core.MembershipViews(fp)
	if len(views) != 1 {
		t.Fatalf("%d membership views, want one for the first tree", len(views))
	}
	ask := core.NewEvaluator(core.AlgAuto, 0, fp)
	ask.EvalAll(candidateMus(f, g))
	nodes := core.NodePrograms(fp)
	for i, e := range append(views, ask) {
		progs := core.DecisionPrograms(e)
		if len(progs) == 0 {
			t.Fatalf("view %d cached no plan", i)
		}
		for _, p := range progs {
			if !slices.Contains(nodes, p) {
				t.Fatalf("view %d runs a program that is not one of the forest's node programs", i)
			}
		}
	}
}

package core_test

// Cross-tree dedup by membership test against the seen-set it replaces:
// on random and targeted UNION forests, every storage backend, both
// planner modes, sequential and on two workers, and under Limit/Offset
// windows, the membership stream must equal the set stream byte for
// byte.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// unionBackends returns g rebuilt on every backend: map, frozen and
// the frozen overlay twin.
func unionBackends(g *rdf.Graph) map[string]*rdf.Graph {
	return map[string]*rdf.Graph{
		"map":        rebuildAs(g, "map"),
		"frozen":     rebuildAs(g, "frozen"),
		"frozen+ovl": rebuildAs(g, "overlay"),
	}
}

// windowStream mirrors the engine's Limit/Offset windowing (limit < 0:
// unlimited) over a program, sequentially or on a pool of workers.
func windowStream(fp *core.ForestProgram, workers, offset, limit int) []rdf.Row {
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
		return limit < 0 || len(out) < limit
	}
	if workers > 1 {
		fp.RowsParallel(context.Background(), workers, emit)
	} else {
		fp.Rows(emit)
	}
	return out
}

// checkMembershipStreams diffs fp's membership stream against its
// set-dedup twin: full, windowed, in both ordered planner modes,
// sequential and on two workers, and the strict-mode count.
func checkMembershipStreams(t *testing.T, label string, fp *core.ForestProgram) {
	t.Helper()
	if got := fp.Dedup(); got != "membership" {
		t.Fatalf("%s: Dedup() = %q, want membership", label, got)
	}
	full := windowStream(core.SetDedupView(fp), 1, 0, -1)
	sizes := []int{0, 1, len(full) / 2, len(full) + 1}
	for _, mode := range []hom.SearchMode{hom.ModeHeuristic, hom.ModePlanned} {
		tuned := fp.Tuned(mode, 0, nil)
		for _, workers := range []int{1, 2} {
			if got := windowStream(tuned, workers, 0, -1); !slices.EqualFunc(got, full, slices.Equal) {
				t.Fatalf("%s mode=%v workers=%d: membership stream\n%v\nset stream\n%v", label, mode, workers, got, full)
			}
			for _, m := range sizes {
				for _, n := range sizes {
					want := windowStream(core.SetDedupView(tuned), workers, m, n)
					if got := windowStream(tuned, workers, m, n); !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("%s mode=%v workers=%d offset=%d limit=%d: window %v, want %v", label, mode, workers, m, n, got, want)
					}
				}
			}
		}
	}
	n := 0
	fp.Tuned(hom.ModeStrict, 0, nil).Rows(func(rdf.Row) bool { n++; return true })
	if n != len(full) {
		t.Fatalf("%s: strict count %d, set stream %d rows", label, n, len(full))
	}
}

// sharedRootUnion draws (A OPT B) UNION (A OPT C): the arms share their
// root, so rows neither optional part extends repeat across the arms —
// about a third of the draws carry a cross-tree duplicate, against
// almost none of gen.RandomWDPattern's independent arms.
func sharedRootUnion(rng *rand.Rand) sparql.Pattern {
	for {
		a := randPattern(rng, 1)
		p := sparql.Union(sparql.Opt(a, randPattern(rng, 2)), sparql.Opt(a, randPattern(rng, 2)))
		if sparql.IsWellDesigned(p) {
			return p
		}
	}
}

func TestMembershipDedupRandomUnions(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	for trial := 0; trial < 60; trial++ {
		p := sharedRootUnion(rng)
		if trial%2 == 0 {
			var ok bool
			if p, ok = gen.RandomWDPattern(rng, gen.PatternOpts{Depth: 3, Union: true}); !ok {
				t.Fatal("pattern generator exhausted")
			}
		}
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatalf("trial %d: wdpf(%s): %v", trial, sparql.Format(p), err)
		}
		g := randData(rng)
		for name, gb := range unionBackends(g) {
			fp := core.CompileForest(f, gb)
			label := fmt.Sprintf("trial %d [%s] %s", trial, name, sparql.Format(p))
			checkMembershipStreams(t, label, fp)
			// Projection without DISTINCT dedups full rows before
			// projecting, the same way on both paths.
			checkMembershipStreams(t, label+" SELECT ?x", fp.Project([]string{"x"}, false))
		}
	}
}

// unionData is a star whose subjects cover every way a row of one arm
// relates to the other arm's answers: subject s0's object has a q-edge
// only, s1's an r-edge only, s2's both, s3's neither; s4 and s5 carry q
// and r edges to one shared object, s6 to different ones.
func unionData() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 7; i++ {
		g.AddTriple(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	g.AddTriple("o0", "q", "z0")
	g.AddTriple("o1", "r", "w1")
	g.AddTriple("o2", "q", "z2")
	g.AddTriple("o2", "r", "w2")
	for _, s := range []string{"s4", "s5"} {
		g.AddTriple(s, "q", "a"+s)
		g.AddTriple(s, "r", "a"+s)
	}
	g.AddTriple("s6", "q", "a6")
	g.AddTriple("s6", "r", "b6")
	return g
}

// Forests whose rows pass both slot masks, so the exact test decides:
// identical arms (every second-arm row is a member), a shared root with
// different OPT children (a row one child leaves at the root domain is a
// member iff the other child does not extend it either), and arms
// binding the same optional variable through different predicates.
func TestMembershipDedupTargeted(t *testing.T) {
	for _, c := range []struct {
		query string
		rows  int // distinct solutions on unionData
	}{
		{`((?x p ?y) UNION (?x p ?y))`, 7},
		{`(((?x p ?y) OPT (?y q ?z)) UNION ((?x p ?y) OPT (?y q ?z)))`, 7},
		// Second-arm rows at {x, y}: s0 (T₁ extends it: kept), s3 and
		// s4..s6 (members: dropped); s1, s2 bind ?w (mask reject).
		{`(((?x p ?y) OPT (?y q ?z)) UNION ((?x p ?y) OPT (?y r ?w)))`, 10},
		// Second-arm rows binding ?a: s4, s5 (same object: members), s6
		// (different object: kept); rows at {x, y}: s0..s3 (members).
		{`(((?x p ?y) OPT (?x q ?a)) UNION ((?x p ?y) OPT (?x r ?a)))`, 8},
	} {
		f, err := ptree.WDPF(sparql.MustParse(c.query))
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		for name, g := range unionBackends(unionData()) {
			fp := core.CompileForest(f, g)
			label := fmt.Sprintf("[%s] %s", name, c.query)
			checkMembershipStreams(t, label, fp)
			if n := len(windowStream(fp, 1, 0, -1)); n != c.rows {
				t.Fatalf("%s: %d rows, want %d", label, n, c.rows)
			}
			// Every child here is one pattern, which the search walks
			// without a count probe: one unit per search, far inside
			// any budget.
			tests := 0
			for _, v := range core.MembershipViews(fp) {
				for _, ti := range v.Tests() {
					if st := ti.Stats; st.BudgetExhaustions != 0 || st.SearchProbes != st.ExtensionTests {
						t.Fatalf("%s: membership test %v: %+v, want one probe unit per search and no exhaustion", label, ti.Child, st)
					}
					tests++
				}
			}
			if tests == 0 && f[0].Size() > 1 {
				t.Fatalf("%s: no membership test ran", label)
			}
		}
	}
}

// The seen-set stays where the membership test would be wrong or
// redundant, and a one-tree forest has nothing to dedup.
func TestDedupChoice(t *testing.T) {
	g := unionData()
	for _, c := range []struct{ query, want string }{
		{`((?x p ?y) OPT (?y q ?z))`, ""},
		{`((?x p ?y) UNION (?x q ?y))`, "membership"},
		{`(((?x p ?y) FILTER ?y != o1) UNION (?x q ?y))`, "set"},
		{`SELECT DISTINCT ?x WHERE ((?x p ?y) UNION (?x q ?y))`, "distinct"},
		{`SELECT ?x WHERE ((?x p ?y) UNION (?x q ?y))`, "membership"},
	} {
		fp, err := compileQuery(sparql.MustParse(c.query), g, false)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := fp.Dedup(); got != c.want {
			t.Fatalf("%s: Dedup() = %q, want %q", c.query, got, c.want)
		}
	}
	// A tree outside NR normal form (a child adding no variable) has no
	// unique witness subtrees, so Decide cannot stand in for the set.
	nonNR := ptree.FromSpec(ptree.Spec{
		Pattern:  []rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y"))},
		Children: []ptree.Spec{{Pattern: []rdf.Triple{rdf.T(rdf.Var("y"), rdf.IRI("q"), rdf.Var("x"))}}},
	})
	other := ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y"))}})
	if got := core.CompileForest(ptree.Forest{nonNR, other}, g).Dedup(); got != "set" {
		t.Fatalf("non-NR forest: Dedup() = %q, want set", got)
	}
}

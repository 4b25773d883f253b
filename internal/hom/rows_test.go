package hom

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/rdf"
)

// The row search on a caller's layout must agree exactly with the
// string API on its private one: for random patterns over random
// graphs, findAllID's rows decode to FindAll's mappings (slots of the
// layout outside vars(pats) stay Unbound), and a seeded base row
// restricts the matches to those agreeing with its bindings.

// findAllID collects every match of pats as rows under the layout
// (interning any new pattern variables) that extends the partial row
// base (nil: none), up to limit (≤ 0 means no limit).
func findAllID(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout, base rdf.Row, limit int) []rdf.Row {
	prog := CompileRowProgram(pats, g, layout)
	row := layout.NewRow()
	copy(row, base)
	var out []rdf.Row
	prog.NewSearcher().Run(row, func() bool {
		out = append(out, row.Clone())
		return limit <= 0 || len(out) < limit
	})
	return out
}

func randRowGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c", "d", "e"}
	preds := []string{"p", "q"}
	n := 5 + rng.Intn(10)
	for i := 0; i < n; i++ {
		g.AddTriple(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
	}
	return g
}

func randRowPats(rng *rand.Rand) []rdf.Triple {
	vars := []rdf.Term{rdf.Var("x"), rdf.Var("y"), rdf.Var("z")}
	iris := []rdf.Term{rdf.IRI("a"), rdf.IRI("b")}
	preds := []rdf.Term{rdf.IRI("p"), rdf.IRI("q")}
	so := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return iris[rng.Intn(len(iris))]
		}
		return vars[rng.Intn(len(vars))]
	}
	n := 1 + rng.Intn(3)
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.T(so(), preds[rng.Intn(len(preds))], so())
	}
	return out
}

func TestFindAllIDAgreesWithFindAll(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for c := 0; c < 200; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		want := FindAll(pats, g, 0)
		layout := rdf.NewSlotLayout()
		other := layout.Intern("w") // a slot of the layout outside vars(pats)
		rows := findAllID(pats, g, layout, nil, 0)
		if len(rows) != len(want) {
			t.Fatalf("case %d: %v: %d rows, %d mappings", c, pats, len(rows), len(want))
		}
		seen := rdf.NewMappingSet()
		for _, m := range want {
			seen.Add(m)
		}
		for _, r := range rows {
			if r[other] != rdf.Unbound {
				t.Fatalf("case %d: slot outside vars(pats) bound in %v", c, r)
			}
			m := layout.DecodeRow(g.Dict(), r)
			if !seen.Contains(m) {
				t.Fatalf("case %d: row decodes to non-solution %s", c, m)
			}
		}
	}
}

func TestFindAllIDLimit(t *testing.T) {
	g := rdf.NewGraph()
	for _, s := range []string{"a", "b", "c", "d"} {
		g.AddTriple(s, "p", s)
	}
	pats := []rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("x"))}
	layout := rdf.NewSlotLayout()
	rows := findAllID(pats, g, layout, nil, 2)
	if len(rows) != 2 {
		t.Fatalf("limit 2 returned %d rows", len(rows))
	}
}

func TestFindAllExtendingID(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for c := 0; c < 200; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		layout := rdf.NewSlotLayout()
		full := findAllID(pats, g, layout, nil, 0)
		if len(full) == 0 {
			continue
		}
		// Use the first solution's binding of its first bound slot as µ.
		base := layout.NewRow()
		pin := -1
		for s, v := range full[0] {
			if v != rdf.Unbound {
				base[s] = v
				pin = s
				break
			}
		}
		if pin < 0 {
			continue
		}
		got := findAllID(pats, g, layout, base, 0)
		// Reference: every full solution whose pin slot matches.
		wantN := 0
		for _, r := range full {
			if r[pin] == base[pin] {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("case %d: extending rows %d, want %d", c, len(got), wantN)
		}
		for _, r := range got {
			if r[pin] != base[pin] {
				t.Fatalf("case %d: extension dropped base binding", c)
			}
		}
	}
}

// The base row must be restored exactly after Run, including on early
// termination.
func TestRowSearcherRestoresRow(t *testing.T) {
	g := rdf.NewGraph()
	for _, s := range []string{"a", "b", "c"} {
		g.AddTriple(s, "p", "b")
	}
	layout := rdf.NewSlotLayout()
	prog := CompileRowProgram([]rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y"))}, g, layout)
	row := layout.NewRow()
	id, _ := g.Dict().LookupIRI("b")
	ySlot, _ := layout.Slot("y")
	row[ySlot] = id
	s := prog.NewSearcher()
	n := 0
	s.Run(row, func() bool { n++; return n < 2 }) // stop early
	if n != 2 {
		t.Fatalf("yields: %d", n)
	}
	xSlot, _ := layout.Slot("x")
	if row[xSlot] != rdf.Unbound || row[ySlot] != id {
		t.Fatalf("row not restored: %v", row)
	}
}

// Exists is ExistsExtending over a compiled program and a seed row, and
// Holds the all-bound membership check; both on random instances, with
// µ binding a random subset of the variables.
func TestExistsAndHoldsAgreeWithStringAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for c := 0; c < 300; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		layout := rdf.NewSlotLayout()
		prog := CompileRowProgram(pats, g, layout)
		mu := rdf.NewMapping()
		dom := g.Dom()
		for _, v := range rdf.VarsOf(pats) {
			if rng.Intn(2) == 0 {
				mu[v.Value] = dom[rng.Intn(len(dom))]
			}
		}
		row, ok := layout.EncodeMapping(g.Dict(), mu)
		if !ok {
			t.Fatalf("case %d: cannot encode %v", c, mu)
		}
		before := row.Clone()
		found, _, err := prog.NewSearcher().Exists(ctx, row, 0)
		if want := ExistsExtending(pats, mu, g); err != nil || found != want {
			t.Fatalf("case %d: %v under %v: Exists = %v, %v; want %v", c, pats, mu, found, err, want)
		}
		if !slices.Equal(row, before) {
			t.Fatalf("case %d: Exists left the row modified", c)
		}
		ground := true
		for _, tr := range pats {
			if img := mu.Apply(tr); !img.Ground() || !g.Contains(img) {
				ground = false
			}
		}
		if got := prog.Holds(row); got != ground {
			t.Fatalf("case %d: %v under %v: Holds = %v, want %v", c, pats, mu, got, ground)
		}
	}
}

// cliqueInTuran returns a searcher refuting K_k in the Turán graph
// T(n, k−1) and the empty row it starts from: a refutation whose search
// nodes each evaluate several selection counts.
func cliqueInTuran(k, n int) (*RowSearcher, rdf.Row) {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i%(k-1) != j%(k-1) {
				g.AddTriple(fmt.Sprintf("n%d", i), "r", fmt.Sprintf("n%d", j))
			}
		}
	}
	var pats []rdf.Triple
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pats = append(pats, rdf.T(rdf.Var(fmt.Sprintf("o%d", i)), rdf.IRI("r"), rdf.Var(fmt.Sprintf("o%d", j))))
		}
	}
	layout := rdf.NewSlotLayout()
	return CompileRowProgram(pats, g, layout).NewSearcher(), layout.NewRow()
}

// Exists spends one unit per search node and one per selection count
// evaluated, memo hit or not: a budget equal to the unbudgeted spend
// finishes the refutation, one unit less stops it with ErrBudget at the
// refused unit, and a cancelled context stops it at the first poll,
// pollEvery units in. K_5 in T(12, 4) takes thousands of units.
func TestExistsBudgetAndCancellation(t *testing.T) {
	s, row := cliqueInTuran(5, 12)
	var st SearchStats
	s.Tune(ModeHeuristic, 0, &st)
	found, need, err := s.Exists(context.Background(), row, 0)
	if found || err != nil || need < 2*pollEvery {
		t.Fatalf("unbounded: found=%v spent=%d err=%v; want a refutation over %d units", found, need, err, 2*pollEvery)
	}
	if units := st.Nodes + st.CountProbes + st.MemoHits; need != units || st.MemoHits == 0 {
		t.Fatalf("spent %d; want nodes+counts = %d+%d+%d (with memo hits)", need, st.Nodes, st.CountProbes, st.MemoHits)
	}
	s.Tune(ModeHeuristic, 0, nil)
	if found, spent, err := s.Exists(context.Background(), row, need); found || err != nil || spent != need {
		t.Fatalf("budget = need: found=%v spent=%d err=%v; want the refutation", found, spent, err)
	}
	if _, spent, err := s.Exists(context.Background(), row, need-1); !errors.Is(err, ErrBudget) || spent != need {
		t.Fatalf("budget = need-1: spent=%d err=%v; want ErrBudget at unit %d", spent, err, need)
	}
	if _, spent, err := s.Exists(context.Background(), row, 100); !errors.Is(err, ErrBudget) || spent != 101 {
		t.Fatalf("budget 100: spent=%d err=%v; want ErrBudget at the 101st unit", spent, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, spent, err := s.Exists(ctx, row, 0); !errors.Is(err, context.Canceled) || spent != pollEvery {
		t.Fatalf("cancelled: spent=%d err=%v; want context.Canceled at the first poll", spent, err)
	}
	// A plain Run after a limited search is unlimited again.
	if !s.Run(row, func() bool { return true }) {
		t.Fatal("Run after Exists must run to exhaustion")
	}
}

// The spend is a function of the program and the row alone: a fresh
// searcher and one whose memo is full of another row's counts return
// identical (found, spent, err) at every budget up to the need.
func TestExistsSpendIsDeterministic(t *testing.T) {
	fresh, row := cliqueInTuran(4, 6)
	_, need, _ := fresh.Exists(context.Background(), row, 0)
	warm := fresh.prog.NewSearcher()
	other := row.Clone()
	other[0], _ = fresh.prog.g.Dict().LookupIRI("n1")
	warm.Exists(context.Background(), row, 0)
	warm.Exists(context.Background(), other, 0)
	for budget := int64(1); budget <= need; budget++ {
		f1, s1, e1 := fresh.prog.NewSearcher().Exists(context.Background(), row, budget)
		f2, s2, e2 := warm.Exists(context.Background(), row, budget)
		if f1 != f2 || s1 != s2 || e1 != e2 {
			t.Fatalf("budget %d: fresh (%v, %d, %v), warmed (%v, %d, %v)", budget, f1, s1, e1, f2, s2, e2)
		}
	}
}

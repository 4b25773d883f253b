package wdsparql

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"wdsparql/internal/gen"
)

// Tests of the planner's public surface: WithPlanner / WithPlannerSlack
// engine options, the per-call Planner exec option, the determinism pin
// (planner on and off must stream identically), order-free Count under
// the strict mode, and Explain.

// plannerEngines prepares the same E9 workload on a planner-on and a
// planner-off engine over the same graph.
func plannerEngines(t testing.TB, n int, opts ...Option) (*PreparedQuery, *PreparedQuery) {
	t.Helper()
	g := gen.Random(n, 4*n, 4, 7)
	on, err := NewEngine(g, opts...).Prepare(MustParsePattern(e9Pattern))
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewEngine(g, append(slices.Clone(opts), WithPlanner(false))...).Prepare(MustParsePattern(e9Pattern))
	if err != nil {
		t.Fatal(err)
	}
	return on, off
}

func TestPlannerStreamsAreByteIdentical(t *testing.T) {
	ctx := context.Background()
	t.Run("frozen", func(t *testing.T) {
		on, off := plannerEngines(t, 256)
		_, rowsOn := collectSelect(on, ctx)
		_, rowsOff := collectSelect(off, ctx)
		if len(rowsOn) != len(rowsOff) {
			t.Fatalf("planner on streams %d mappings, off %d", len(rowsOn), len(rowsOff))
		}
		for i := range rowsOff {
			if !rowsOn[i].Equal(rowsOff[i]) {
				t.Fatalf("streams diverge at row %d: %s vs %s", i, rowsOn[i], rowsOff[i])
			}
		}

		// The per-call override must cross both engines to the other
		// config and still match.
		_, forcedOff := collectSelect(on, ctx, Planner(false))
		_, forcedOn := collectSelect(off, ctx, Planner(true))
		if len(forcedOff) != len(rowsOff) || len(forcedOn) != len(rowsOff) {
			t.Fatalf("per-call Planner override changed cardinality: %d / %d, want %d",
				len(forcedOff), len(forcedOn), len(rowsOff))
		}
		for i := range rowsOff {
			if !forcedOff[i].Equal(rowsOff[i]) || !forcedOn[i].Equal(rowsOff[i]) {
				t.Fatalf("per-call Planner override diverges at row %d", i)
			}
		}
	})
}

func TestPlannerCountMatchesStream(t *testing.T) {
	ctx := context.Background()
	on, off := plannerEngines(t, 256, WithPlannerSlack(4))
	want, _ := collectSelect(off, ctx)
	for _, q := range []*PreparedQuery{on, off} {
		n, err := q.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != want.Len() {
			t.Fatalf("Count = %d, want %d", n, want.Len())
		}
		// The Limit/Offset window must stay prefix-sliced arithmetic
		// regardless of the strict mode's enumeration order.
		n, err = q.Count(ctx, Offset(3), Limit(5))
		if err != nil {
			t.Fatal(err)
		}
		wantWin := want.Len() - 3
		if wantWin < 0 {
			wantWin = 0
		}
		if wantWin > 5 {
			wantWin = 5
		}
		if n != wantWin {
			t.Fatalf("windowed Count = %d, want %d", n, wantWin)
		}
		// Parallel execution composes with the planner.
		n, err = q.Count(ctx, Parallel(4))
		if err != nil {
			t.Fatal(err)
		}
		if n != want.Len() {
			t.Fatalf("parallel Count = %d, want %d", n, want.Len())
		}
	}
}

func TestPlannerExplain(t *testing.T) {
	on, off := plannerEngines(t, 64)
	ep := on.Explain()
	if !ep.Planner {
		t.Fatal("planner-on engine must explain Planner: true")
	}
	if off.Explain().Planner {
		t.Fatal("planner-off engine must explain Planner: false")
	}
	if len(ep.Trees) == 0 {
		t.Fatal("Explain returned no trees")
	}
	var walk func(n *PlanNode) int
	walk = func(n *PlanNode) int {
		if len(n.Order) != len(n.Patterns) {
			t.Fatalf("node explains %d steps for %d patterns", len(n.Order), len(n.Patterns))
		}
		total := len(n.Patterns)
		for _, s := range n.Order {
			if s.Pattern == "" || s.Side == "" {
				t.Fatalf("unrendered explain step: %+v", s)
			}
			if s.Est < 0 || s.Base < 0 {
				t.Fatalf("negative estimate in step %+v", s)
			}
		}
		for _, c := range n.Children {
			total += walk(c)
		}
		return total
	}
	total := 0
	for _, tr := range ep.Trees {
		total += walk(tr)
	}
	if total != 4 {
		t.Fatalf("explain covers %d patterns, e9Pattern has 4", total)
	}
	// The plan must serialise — it is wdserve's explain=1 payload.
	if _, err := json.Marshal(ep); err != nil {
		t.Fatalf("explain not serialisable: %v", err)
	}
}

// A constant absent from the graph renders as itself, not as whatever
// IRI holds TermID 0 (absent constants compile to code ^0): over
// `x p y .`, (absent p ?z) must not explain as "x p ?z", and over the
// empty graph of NewEngine(nil), where no ID 0 exists, Explain must not
// panic.
func TestExplainAbsentConstant(t *testing.T) {
	g, err := ParseGraph("x p y .")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		eng   *Engine
		query string
	}{
		{NewEngine(g), "(absent p ?z)"},
		{NewEngine(nil), "(a p ?z)"},
	} {
		q, err := c.eng.PrepareText(c.query)
		if err != nil {
			t.Fatal(err)
		}
		want := c.query[1 : len(c.query)-1]
		if got := q.Explain().Trees[0].Patterns; !slices.Equal(got, []string{want}) {
			t.Errorf("%s explains as %q, want %q", c.query, got, want)
		}
	}
}

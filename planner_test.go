package wdsparql

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
)

// Tests of the planner as the engine runs it: ordered executions run
// hom.ModePlanned and must stream exactly what the per-node heuristic
// streams (the determinism pin), order-free Count runs hom.ModeStrict
// and must count that stream, and Explain renders the join orders.

// heuristicStream decodes the query's stream under hom.ModeHeuristic,
// the pre-planner search the engine's modes are pinned to.
func heuristicStream(q *PreparedQuery) []Mapping {
	d, layout := q.eng.g.Dict(), q.prog.Layout()
	var out []Mapping
	q.prog.Tuned(hom.ModeHeuristic, 0, nil).Rows(func(r rdf.Row) bool {
		out = append(out, layout.DecodeRow(d, r))
		return true
	})
	return out
}

func TestPlannerStreamsAreByteIdentical(t *testing.T) {
	ctx := context.Background()
	t.Run("frozen", func(t *testing.T) {
		_, q, _ := enumPrepared(t, 256)
		want := heuristicStream(q)
		for _, opts := range [][]ExecOption{nil, {Parallel(4)}} {
			_, got := collectSelect(q, ctx, opts...)
			if len(got) != len(want) {
				t.Fatalf("planned stream (%d options) has %d mappings, heuristic %d", len(opts), len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("streams diverge at row %d: %s vs %s", i, got[i], want[i])
				}
			}
		}
	})
}

func TestPlannerCountMatchesStream(t *testing.T) {
	ctx := context.Background()
	_, q, _ := enumPrepared(t, 256)
	want := len(heuristicStream(q))
	n, err := q.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("Count = %d, want %d", n, want)
	}
	// The Limit/Offset window must stay prefix-sliced arithmetic
	// regardless of the strict mode's enumeration order.
	n, err = q.Count(ctx, Offset(3), Limit(5))
	if err != nil {
		t.Fatal(err)
	}
	if wantWin := min(max(want-3, 0), 5); n != wantWin {
		t.Fatalf("windowed Count = %d, want %d", n, wantWin)
	}
	// Parallel execution composes with the strict mode.
	n, err = q.Count(ctx, Parallel(4))
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("parallel Count = %d, want %d", n, want)
	}
}

func TestPlannerExplain(t *testing.T) {
	_, q, _ := enumPrepared(t, 64)
	ep := q.Explain()
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
		t.Fatalf("explain covers %d patterns, enumPattern has 4", total)
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

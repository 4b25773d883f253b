package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// The experiment harness itself is tested: every table must render,
// have consistent row widths, and — crucially — every correctness
// column ("agree", "oracle agrees", "exact?") must carry the value the
// corresponding theorem predicts.

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "test", Claim: "c", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	out := tbl.String()
	if !strings.Contains(out, "T — test") || !strings.Contains(out, "claim: c") {
		t.Fatalf("render: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestMsFormatting(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:  "500ns",
		2500 * time.Nanosecond: "2.5µs",
		3 * time.Millisecond:   "3.00ms",
		2 * time.Second:        "2.00s",
	}
	for d, want := range cases {
		if got := ms(d); got != want {
			t.Fatalf("ms(%v)=%q, want %q", d, got, want)
		}
	}
}

func TestE1Values(t *testing.T) {
	tbl := E1CoreTreewidth(4)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// k=4 row: ctw(S)=3, tw(S')=3, ctw(S')=1, core=true.
	row := tbl.Rows[2]
	if row[1] != "3" || row[2] != "3" || row[3] != "1" || row[4] != "true" {
		t.Fatalf("E1 k=4 row: %v", row)
	}
}

func TestE2Values(t *testing.T) {
	tbl := E2DominationWidth(3)
	for _, row := range tbl.Rows {
		if row[1] != "1" {
			t.Fatalf("dw must be 1: %v", row)
		}
		if row[3] != "2" {
			t.Fatalf("|GtG(T1[r1])| must be 2: %v", row)
		}
	}
}

func TestE3Agreement(t *testing.T) {
	tbl := E3BoundedDW(3, 12)
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Fatalf("algorithms must agree: %v", row)
		}
		if row[5] != "true" {
			t.Fatalf("E3 instances are members: %v", row)
		}
	}
}

func TestE4Agreement(t *testing.T) {
	tbl := E4BranchTreewidth(3, 12)
	for _, row := range tbl.Rows {
		if row[1] != "1" || row[2] != "1" {
			t.Fatalf("bw=dw=1 expected: %v", row)
		}
		if row[6] != "true" {
			t.Fatalf("agreement expected: %v", row)
		}
	}
}

func TestE5OracleAgreement(t *testing.T) {
	tbl := E5CliqueReduction([]int{2, 3}, []int{5, 7}, 1)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("reduction must agree with oracle: %v", row)
		}
	}
}

func TestE6RelaxationColumns(t *testing.T) {
	tbl := E6PebbleVsHom([]int{3}, 9)
	for _, row := range tbl.Rows {
		// hom=false on Turán; pebble may be true (row 2 pebbles) but
		// with 3 pebbles on K3 (ctw=2) Prop. 3 forces exactness.
		if row[2] != "false" {
			t.Fatalf("hom must fail on Turán: %v", row)
		}
		if row[1] == "3" && row[6] != "true" {
			t.Fatalf("3 pebbles exact on K3: %v", row)
		}
	}
}

func TestE7Agreement(t *testing.T) {
	tbl := E7DataScaling(3, []int{8, 16})
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Fatalf("agreement expected: %v", row)
		}
	}
}

func TestAblationTables(t *testing.T) {
	// A1's agreement row: the row search and the static-order reference
	// agree on every refutation, and the search counts its nodes.
	a1 := A1FailFirst([]int{3, 4}, 9)
	for _, row := range a1.Rows {
		if row[4] != "true" {
			t.Fatalf("solvers disagree: %v", row)
		}
		if nodes, err := strconv.Atoi(row[3]); err != nil || nodes <= 0 {
			t.Fatalf("search nodes must be a positive count: %v", row)
		}
	}
	a2 := A2UnaryPruning([]int{3}, 12)
	for _, row := range a2.Rows {
		if row[3] != "true" {
			t.Fatalf("pruning must not change verdicts: %v", row)
		}
	}
	a3 := A3ExactTreewidth(4)
	for _, row := range a3.Rows {
		if row[1] != row[2] {
			t.Fatalf("heuristic should be optimal on these hosts: %v", row)
		}
	}
}

func TestE8Agreement(t *testing.T) {
	tbl := E8BatchEval(2, 12, 2)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] == "0" {
			t.Fatalf("E8 must evaluate a non-empty batch: %v", row)
		}
		if row[len(row)-1] != "true" {
			t.Fatalf("batched and per-mapping evaluation must agree: %v", row)
		}
	}
}

func TestTableAgreement(t *testing.T) {
	tbl := &Table{Header: []string{"n", "agree"}, Rows: [][]string{{"1", "true"}, {"2", "true"}}}
	if !tbl.Agreement() {
		t.Fatal("all-true agree column must pass")
	}
	tbl.AddRow("3", "false")
	if tbl.Agreement() {
		t.Fatal("false agree cell must fail")
	}
	// Non-agreement boolean columns (E6's "exact?", E5's "verdict") are
	// data, not cross-validation verdicts.
	data := &Table{Header: []string{"k", "exact?"}, Rows: [][]string{{"3", "false"}}}
	if !data.Agreement() {
		t.Fatal("non-agreement columns must not affect the verdict")
	}
}

func TestSuiteComposition(t *testing.T) {
	tables := Suite(false)
	if len(tables) != 10 {
		t.Fatalf("suite size: %d", len(tables))
	}
	ids := map[string]bool{}
	for _, tbl := range tables {
		ids[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty table %s", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("%s: ragged row %v", tbl.ID, row)
			}
		}
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E16", "E17"} {
		if !ids[id] {
			t.Fatalf("missing %s", id)
		}
	}
}

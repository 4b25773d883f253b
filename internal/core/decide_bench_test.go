package core_test

import (
	"fmt"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
)

// evalTotals sums the counters of every extension test e has run.
func evalTotals(e *core.Evaluator) (st core.EvalStats) {
	for _, ti := range e.Tests() {
		st.Add(ti.Stats)
	}
	return st
}

// BenchmarkDecideFk times warmed default-algorithm decisions of µ on the
// nine F_k instances of the ask_frontier workload — k = 3..5 over member,
// nonmember and planted-clique data on a Turán graph of 24 nodes — and
// reports both sides of the mixture per decision: the probe units the
// searches spent and the partial assignments the pebble closures
// enumerated.
func BenchmarkDecideFk(b *testing.B) {
	mu := gen.FkMu()
	for _, k := range []int{3, 4, 5} {
		for _, v := range []struct {
			name          string
			withQ, clique bool
		}{{"member", false, false}, {"nonmember", true, false}, {"clique", false, true}} {
			b.Run(fmt.Sprintf("k=%d/%s", k, v.name), func(b *testing.B) {
				g := gen.FkData(k, 24, v.withQ, v.clique).Freeze() // sealed, as an Engine keeps it
				e := newEvaluator(core.AlgAuto, 0, gen.Fk(k), g)
				if e.Eval(mu) == v.withQ { // warm: plan, games and dw(F_k)
					b.Fatalf("wrong verdict on the %s instance", v.name)
				}
				before := evalTotals(e)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Eval(mu)
				}
				b.StopTimer()
				after := evalTotals(e)
				b.ReportMetric(float64(after.SearchProbes-before.SearchProbes)/float64(b.N), "search_probes/op")
				b.ReportMetric(float64(after.PebbleAssignments-before.PebbleAssignments)/float64(b.N), "pebble_assignments/op")
			})
		}
	}
}

package hom

import (
	"wdsparql/internal/rdf"
)

// This file holds the static-order ablation of the homomorphism
// solver, kept apart from the row search: the benchmark suite's A1
// table measures fail-first pattern selection against it, and the
// tests use it as a reference that shares no code with the row search.
// Production code should use Exists and friends.

// ExistsStaticOrder is Exists with the fail-first heuristic disabled:
// patterns are expanded in their given (sorted) order regardless of
// how many matches they admit. Worst-case behaviour is identical; on
// structured instances the ordering heuristic typically wins by large
// factors.
func ExistsStaticOrder(pats []rdf.Triple, g *rdf.Graph) bool {
	assign := rdf.NewMapping()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pats) {
			return true
		}
		p := assign.Apply(pats[i])
		for _, t := range g.Match(p) {
			newVars := bindMatch(p, t, assign)
			if rec(i + 1) {
				return true
			}
			for _, v := range newVars {
				delete(assign, v)
			}
		}
		return false
	}
	return rec(0)
}

// bindMatch extends assign with the bindings induced by matching
// pattern p (already µ-substituted) against ground triple t, returning
// the names of newly bound variables for backtracking.
func bindMatch(p, t rdf.Triple, assign rdf.Mapping) []string {
	var newVars []string
	pa, ta := p.Terms(), t.Terms()
	for i := 0; i < 3; i++ {
		if pa[i].IsVar() {
			if _, ok := assign[pa[i].Value]; !ok {
				assign[pa[i].Value] = ta[i].Value
				newVars = append(newVars, pa[i].Value)
			}
		}
	}
	return newVars
}

package bench

import (
	"fmt"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Micro-benchmarks of the implementation (not paper claims): the three
// enumeration strategies on application-shaped workloads.

// M1Enumeration compares subtree enumeration, top-down enumeration and
// the hash-join compositional evaluator on OPTIONAL-heavy workloads.
// All three must produce the same solution count.
func M1Enumeration() *Table {
	t := &Table{
		ID:     "M1",
		Title:  "enumeration strategies on application workloads",
		Claim:  "all strategies agree; top-down avoids the subtree blow-up",
		Header: []string{"workload", "|G|", "solutions", "subtree-enum", "top-down", "hash-join"},
	}
	runs := []struct {
		name string
		f    ptree.Forest
		g    *rdf.Graph
	}{
		{
			name: "social/60",
			f: ptree.MustWDPF(sparql.MustParse(
				`(((?p knows ?q) OPT (?p worksAt ?org)) OPT (?q email ?m))`)),
			g: gen.SocialNetwork(60, 1),
		},
		{
			name: "star/6arms/50items",
			f:    ptree.Forest{gen.OptStar(6)},
			g:    gen.ItemCatalog(50, 6, 2),
		},
		{
			name: "chain/depth6",
			f:    ptree.Forest{gen.OptChain(6)},
			g:    gen.PathData(40, 30, 3),
		},
	}
	for _, r := range runs {
		var nSub, nTop, nHash int
		dSub := timed(func() { nSub = core.EnumerateForest(r.f, r.g).Len() })
		dTop := timed(func() { nTop = core.EnumerateTopDownForest(r.f, r.g).Len() })
		pat := ptree.ForestToPattern(r.f)
		dHash := timed(func() { nHash = sparql.EvalHashJoin(pat, r.g).Len() })
		sols := fmt.Sprint(nTop)
		if nSub != nTop || nHash != nTop {
			sols = fmt.Sprintf("DISAGREE(%d/%d/%d)", nSub, nTop, nHash)
		}
		t.AddRow(r.name, fmt.Sprint(r.g.Len()), sols, ms(dSub), ms(dTop), ms(dHash))
	}
	return t
}

// MicroExperiments returns the micro-benchmark suite lazily.
func MicroExperiments() []Experiment {
	return []Experiment{
		{"M1", func() *Table { return M1Enumeration() }},
	}
}

package core

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// planAtCompile plans every node of a freshly compiled tree now, from
// entry slots derived afresh from the tree — the ancestors' variables —
// instead of the slices compileNode recorded: the plans compilation
// built before plans became lazy.
func planAtCompile(cn *compiledNode, n *ptree.Node, layout *rdf.SlotLayout, entry []int32) {
	cn.prog.BuildPlan(entry)
	child := slices.Clone(entry)
	for _, v := range n.Vars() {
		if s := int32(layout.Intern(v.Value)); !slices.Contains(child, s) {
			child = append(child, s)
		}
	}
	for i, c := range n.Children {
		planAtCompile(cn.children[i], c, layout, child)
	}
}

// A node's lazy plan, built by the first strict execution, is the plan
// the node would have got at compile time, on every sealed backend and
// with filters pushed: planning late sees the same entry slots and
// filters compilation saw.
func TestLazyPlanMatchesCompileTimePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	opts := gen.PatternOpts{
		Preds: []rdf.Term{rdf.IRI("p0"), rdf.IRI("p1")},
		IRIs:  []rdf.Term{rdf.IRI("n0"), rdf.IRI("n1")},
	}
	for trial := 0; trial < 60; trial++ {
		opts.Depth, opts.Union, opts.Filters = 2+trial%2, trial%3 == 0, trial%3
		p, ok := gen.RandomWDQuery(rng, opts)
		if !ok {
			t.Fatal("query generator exhausted")
		}
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		n := 3 + trial%5
		ts := gen.Random(n, min(6+rng.Intn(20), n*n), 2, int64(trial)).Triples() // at most half of the n·n·2 possible triples
		ovl := rdf.GraphFromTriples(ts[:len(ts)/2])
		for _, tr := range ts[len(ts)/2:] {
			ovl.Add(tr)
		}
		for name, g := range map[string]*rdf.Graph{
			"frozen":     rdf.GraphFromTriples(ts),
			"frozen+ovl": ovl,
		} {
			lazy, eager := CompileForest(f, g), CompileForest(f, g)
			for i, r := range eager.roots {
				planAtCompile(r, f[i].Root, eager.layout, nil)
			}
			lazy.Tuned(hom.ModeStrict, 0, nil).Rows(func(rdf.Row) bool { return true })
			got, _ := json.Marshal(lazy.Explain())
			want, _ := json.Marshal(eager.Explain())
			if string(got) != string(want) {
				t.Fatalf("trial %d [%s]: lazy plans\n%s\ncompile-time plans\n%s", trial, name, got, want)
			}
		}
	}
}

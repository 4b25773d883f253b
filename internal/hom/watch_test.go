package hom

import (
	"fmt"
	"testing"

	"wdsparql/internal/rdf"
)

// A watched searcher stops within pollEvery candidates of its channel
// closing, even when every candidate is rejected by a pushed filter and
// no match is ever yielded.
func TestWatchStopsDeadEnd(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 200; i++ {
		g.AddTriple(fmt.Sprintf("s%d", i), "knows", fmt.Sprintf("k%d", i))
		g.AddTriple(fmt.Sprintf("t%d", i), "likes", fmt.Sprintf("l%d", i))
	}
	layout := rdf.NewSlotLayout()
	p := CompileRowProgram([]rdf.Triple{
		rdf.T(rdf.Var("x"), rdf.IRI("knows"), rdf.Var("y")),
		rdf.T(rdf.Var("z"), rdf.IRI("likes"), rdf.Var("i")),
	}, g, layout)
	y, _ := layout.Slot("y")
	i, _ := layout.Slot("i")
	p.AttachFilter(&FilterExpr{Op: FOpEq, ASlot: int32(y), BSlot: int32(i)})
	row := make(rdf.Row, layout.Width())
	for j := range row {
		row[j] = rdf.Unbound
	}
	s := p.NewSearcher()
	var stats SearchStats
	s.Tune(ModeHeuristic, 0, &stats)
	if !s.Run(row, func() bool { return true }) || stats.FilterPruned != 200*200 {
		t.Fatalf("unwatched: the dead end must run to exhaustion, pruned %d", stats.FilterPruned)
	}
	done := make(chan struct{})
	close(done)
	s.Watch(done)
	stats = SearchStats{}
	if s.Run(row, func() bool { return true }) {
		t.Fatal("a watched search ran to exhaustion after its channel closed")
	}
	if stats.FilterPruned > pollEvery {
		t.Fatalf("a watched search pruned %d candidates after its channel closed, want ≤ %d", stats.FilterPruned, pollEvery)
	}
}

package graphalg

import (
	"math/rand"
	"testing"
)

// Exact treewidth of known shapes, with the elimination heuristics'
// upper bound already optimal on each (experiment A3: the subset
// dynamic program certifies the heuristic on cliques and grids).
func TestTreewidthKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *UGraph
		want int
	}{
		{"empty", NewUGraph(0), 0},
		{"isolated", NewUGraph(5), 0},
		{"single-edge", Path(2), 1},
		{"path10", Path(10), 1},
		{"cycle5", Cycle(5), 2},
		{"K3", Clique(3), 2},
		{"K4", Clique(4), 3},
		{"K5", Clique(5), 4},
		{"K6", Clique(6), 5},
		{"K7", Clique(7), 6},
		{"grid2x2", Grid(2, 2), 2},
		{"grid3x3", Grid(3, 3), 3},
		{"grid4x4", Grid(4, 4), 4},
		{"grid3x5", Grid(3, 5), 3},
		{"grid3x6", Grid(3, 6), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, exact := Treewidth(tc.g)
			if !exact {
				t.Fatalf("expected exact result for %s", tc.name)
			}
			if w != tc.want {
				t.Fatalf("tw(%s)=%d, want %d", tc.name, w, tc.want)
			}
			if ub, lb := TreewidthUpperBound(tc.g), TreewidthLowerBound(tc.g); ub != w || lb > w {
				t.Fatalf("%s: heuristic bounds [%d, %d], exact %d", tc.name, lb, ub, w)
			}
		})
	}
}

func TestTreewidthBoundsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(8)
		g := NewUGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		w, exact := Treewidth(g)
		lb, ub := TreewidthLowerBound(g), TreewidthUpperBound(g)
		if !exact {
			t.Fatalf("n=%d should be exact", n)
		}
		if w < lb || w > ub {
			t.Fatalf("trial %d: tw=%d outside [%d,%d]", trial, w, lb, ub)
		}
	}
}

// The lower bound is checked against the subset program run with its
// clamp to [lb, ub] switched off (0 and n), so a bound that comes out
// too high cannot raise the value it is compared with.
func TestTreewidthLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		g := randGraph(rng, n, 0.2+0.6*rng.Float64())
		if lb, tw := TreewidthLowerBound(g), exactTreewidthDP(g, 0, n); lb > tw {
			t.Fatalf("trial %d: lower bound %d above treewidth %d; edges %v", trial, lb, tw, g.Edges())
		}
	}
}

func TestTreewidthDisconnected(t *testing.T) {
	// K4 plus an isolated path: tw = max(3, 1) = 3.
	g := Clique(4)
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.AddEdge(a, b)
	w, exact := Treewidth(g)
	if !exact || w != 3 {
		t.Fatalf("tw=%d exact=%v", w, exact)
	}
}

func TestComponentsAndInduced(t *testing.T) {
	g := NewUGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components: %v", comps)
	}
	sub, orig := g.InducedSubgraph([]int{0, 1, 2})
	if sub.N() != 3 || sub.EdgeCount() != 2 || len(orig) != 3 {
		t.Fatalf("induced: %v", sub)
	}
	if !sub.IsConnected() || g.IsConnected() {
		t.Fatal("connectivity")
	}
}

func TestHasClique(t *testing.T) {
	if !HasClique(Clique(5), 5) || HasClique(Clique(5), 6) {
		t.Fatal("clique detection on K5")
	}
	if HasClique(Grid(3, 3), 3) {
		t.Fatal("grids are triangle-free")
	}
	if !HasClique(Grid(3, 3), 2) {
		t.Fatal("grid has an edge")
	}
	if !HasClique(NewUGraph(1), 1) || HasClique(NewUGraph(0), 1) {
		t.Fatal("k=1 cases")
	}
	if !HasClique(NewUGraph(0), 0) {
		t.Fatal("k=0 is trivially true")
	}
	// Turán-style: complete 3-partite on 9 vertices has K3 but not K4.
	g := NewUGraph(9)
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			if i%3 != j%3 {
				g.AddEdge(i, j)
			}
		}
	}
	if !HasClique(g, 3) || HasClique(g, 4) {
		t.Fatal("Turán T(9,3)")
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N=%d", g.N())
	}
	// Interior degree 4, corner degree 2.
	if g.Degree(GridID(1, 1, 4)) != 4 || g.Degree(GridID(0, 0, 4)) != 2 {
		t.Fatal("grid degrees")
	}
	if g.EdgeCount() != 3*3+2*4 {
		t.Fatalf("edges=%d", g.EdgeCount())
	}
}

func TestMinorMapGridOntoGrid(t *testing.T) {
	for _, tc := range [][4]int{{3, 3, 3, 3}, {4, 6, 2, 3}, {5, 7, 3, 3}, {6, 6, 4, 6}} {
		hostR, hostC, k, K := tc[0], tc[1], tc[2], tc[3]
		m, err := GridMinorOntoGrid(hostR, hostC, k, K)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(Grid(hostR, hostC)); err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
	}
	if _, err := GridMinorOntoGrid(2, 2, 3, 3); err == nil {
		t.Fatal("too-small host must fail")
	}
}

func TestMinorMapGridOntoClique(t *testing.T) {
	m, err := GridMinorOntoClique(10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(Clique(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := GridMinorOntoClique(5, 2, 3); err == nil {
		t.Fatal("clique too small")
	}
}

func TestMinorMapPositionOf(t *testing.T) {
	m, _ := GridMinorOntoGrid(4, 4, 2, 2)
	host := Grid(4, 4)
	seen := 0
	for v := 0; v < host.N(); v++ {
		if _, _, ok := m.PositionOf(v); ok {
			seen++
		}
	}
	if seen != host.N() {
		t.Fatalf("onto map covers %d of %d", seen, host.N())
	}
}

func TestPairBijection(t *testing.T) {
	b := NewPairBijection(4)
	if b.K() != 6 {
		t.Fatalf("C(4,2)=%d", b.K())
	}
	seen := map[[2]int]bool{}
	for p := 1; p <= b.K(); p++ {
		i, j := b.Pair(p)
		if i >= j || i < 1 || j > 4 {
			t.Fatalf("pair %d: (%d,%d)", p, i, j)
		}
		seen[[2]int{i, j}] = true
		if !b.Contains(p, i) || !b.Contains(p, j) {
			t.Fatal("Contains")
		}
		for l := 1; l <= 4; l++ {
			if l != i && l != j && b.Contains(p, l) {
				t.Fatal("spurious Contains")
			}
		}
	}
	if len(seen) != 6 {
		t.Fatal("bijection not injective")
	}
}

func TestUGraphBasics(t *testing.T) {
	g := NewUGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 0) // self-loop ignored
	if g.EdgeCount() != 1 || !g.HasEdge(1, 0) || g.HasEdge(0, 0) {
		t.Fatal("edges")
	}
	g.SetLabel(0, "root")
	if g.Label(0) != "root" {
		t.Fatal("labels")
	}
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.EdgeCount() != 1 || c.EdgeCount() != 2 {
		t.Fatal("clone")
	}
	if ns := g.Neighbors(0); len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("neighbors: %v", ns)
	}
	if !g.IsCliqueOn([]int{0, 1}) || g.IsCliqueOn([]int{0, 2}) {
		t.Fatal("IsCliqueOn")
	}
}

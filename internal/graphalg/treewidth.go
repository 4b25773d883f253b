package graphalg

import (
	"math/bits"
)

// This file computes treewidth. The graphs whose treewidth the paper
// needs are Gaifman graphs of (cores of) query patterns, which are
// small; we therefore provide an exact algorithm — the classic dynamic
// program over vertex subsets of Bodlaender et al. ("On exact
// algorithms for treewidth"), based on elimination orderings — for
// graphs of up to MaxExactVertices vertices, together with the
// min-fill and min-degree elimination heuristics (upper bounds) and
// the minor-min-width lower bound used to confirm heuristic
// optimality, which skips the exact program.

// MaxExactVertices bounds the component size for which the exact
// subset dynamic program is attempted (2^n states).
const MaxExactVertices = 22

// Treewidth returns the exact treewidth of g, provided every connected
// component has at most MaxExactVertices vertices; otherwise it falls
// back to the best heuristic upper bound and reports exact=false.
// The treewidth of an empty or edgeless graph is 0 under the standard
// definition used here (the paper's tw(S,X) convention of reporting 1
// in that case is applied by the width package).
func Treewidth(g *UGraph) (width int, exact bool) {
	if g.n == 0 {
		return 0, true
	}
	width, exact = 0, true
	for _, comp := range g.Components() {
		sub, _ := g.InducedSubgraph(comp)
		w, ex := componentTreewidth(sub)
		if w > width {
			width = w
		}
		exact = exact && ex
	}
	return width, exact
}

// TreewidthUpperBound returns the min over the min-fill and min-degree
// heuristic elimination orders.
func TreewidthUpperBound(g *UGraph) int {
	a := eliminationWidth(g, pickMinFill)
	b := eliminationWidth(g, pickMinDegree)
	if b < a {
		a = b
	}
	return a
}

// TreewidthLowerBound returns the minor-min-width bound: the largest
// minimum degree seen while a minimum-degree vertex (lowest index on
// ties) is repeatedly contracted into its minimum-degree neighbour.
// Every graph it sees is a minor, whose treewidth bounds the graph's.
// The bound dominates degeneracy, which deletes the vertex instead:
// the graph left by the deletion is a spanning subgraph of the one
// left by the contraction, so by induction the contraction never sees
// a smaller maximum. On grids degeneracy stays at 2 while
// minor-min-width reaches the treewidth of every grid up to 4x5.
func TreewidthLowerBound(g *UGraph) int {
	adj := make([]map[int]bool, g.n)
	for v := range adj {
		adj[v] = make(map[int]bool, len(g.adj[v]))
		for u := range g.adj[v] {
			adj[v][u] = true
		}
	}
	// lighter reports whether u has a smaller degree than v, or an
	// equal one and a lower index.
	lighter := func(u, v int) bool {
		return v < 0 || len(adj[u]) < len(adj[v]) || (len(adj[u]) == len(adj[v]) && u < v)
	}
	best := 0
	for left := g.n; left > 0; left-- {
		v := -1
		for u := range adj {
			if adj[u] != nil && lighter(u, v) {
				v = u
			}
		}
		best = max(best, len(adj[v]))
		w := -1
		for u := range adj[v] {
			if lighter(u, w) {
				w = u
			}
		}
		for u := range adj[v] {
			delete(adj[u], v)
			if u != w {
				adj[u][w], adj[w][u] = true, true
			}
		}
		adj[v] = nil
	}
	return best
}

func componentTreewidth(g *UGraph) (int, bool) {
	if g.n <= 1 {
		return 0, true
	}
	ub := TreewidthUpperBound(g)
	lb := TreewidthLowerBound(g)
	if lb == ub {
		return ub, true
	}
	if g.n > MaxExactVertices {
		return ub, false
	}
	return exactTreewidthDP(g, lb, ub), true
}

// exactTreewidthDP runs the O(2^n · n²) dynamic program over subsets:
// tw(G) = min over elimination orders of the max elimination degree,
// where f(S) is the best width eliminating exactly the vertices of S
// first and the elimination degree of v after S is the number of
// vertices outside S∪{v} reachable from v through S.
func exactTreewidthDP(g *UGraph, lb, ub int) int {
	n := g.n
	full := uint32(1)<<n - 1
	const inf = int32(1 << 30)
	f := make([]int32, full+1)
	for i := range f {
		f[i] = inf
	}
	f[0] = 0
	// Iterate subsets in increasing popcount order implicitly: any
	// order where S\{v} < S numerically works because S\{v} < S for
	// v ∈ S.
	for s := uint32(1); s <= full; s++ {
		bestVal := inf
		rem := s
		for rem != 0 {
			v := bits.TrailingZeros32(rem)
			rem &= rem - 1
			prev := f[s&^(1<<v)]
			if prev >= inf {
				continue
			}
			q := int32(eliminationDegree(g, s&^(1<<uint(v)), v))
			val := prev
			if q > val {
				val = q
			}
			if val < bestVal {
				bestVal = val
			}
		}
		f[s] = bestVal
		if s == full {
			break
		}
	}
	w := int(f[full])
	if w < lb {
		w = lb
	}
	if w > ub {
		w = ub
	}
	return w
}

// eliminationDegree counts the vertices outside eliminated∪{v} that v
// reaches via paths whose interior lies in the eliminated set.
func eliminationDegree(g *UGraph, eliminated uint32, v int) int {
	seen := uint32(1) << uint(v)
	stack := []int{v}
	count := 0
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := range g.adj[x] {
			bit := uint32(1) << uint(u)
			if seen&bit != 0 {
				continue
			}
			seen |= bit
			if eliminated&bit != 0 {
				stack = append(stack, u)
			} else {
				count++
			}
		}
	}
	return count
}

// eliminationWidth simulates eliminating vertices chosen by pick,
// connecting the neighbourhood of each eliminated vertex into a
// clique, and returns the maximum elimination degree encountered.
func eliminationWidth(g *UGraph, pick func(adj []map[int]bool, alive map[int]bool) int) int {
	adj := make([]map[int]bool, g.n)
	for v := 0; v < g.n; v++ {
		adj[v] = map[int]bool{}
		for u := range g.adj[v] {
			adj[v][u] = true
		}
	}
	alive := map[int]bool{}
	for v := 0; v < g.n; v++ {
		alive[v] = true
	}
	width := 0
	for len(alive) > 0 {
		v := pick(adj, alive)
		if len(adj[v]) > width {
			width = len(adj[v])
		}
		nbrs := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			nbrs = append(nbrs, u)
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				adj[nbrs[i]][nbrs[j]] = true
				adj[nbrs[j]][nbrs[i]] = true
			}
		}
		for _, u := range nbrs {
			delete(adj[u], v)
		}
		delete(alive, v)
	}
	return width
}

func pickMinDegree(adj []map[int]bool, alive map[int]bool) int {
	best, bestD := -1, -1
	for v := range alive {
		if best == -1 || len(adj[v]) < bestD || (len(adj[v]) == bestD && v < best) {
			best, bestD = v, len(adj[v])
		}
	}
	return best
}

func pickMinFill(adj []map[int]bool, alive map[int]bool) int {
	best, bestFill := -1, -1
	for v := range alive {
		nbrs := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			nbrs = append(nbrs, u)
		}
		fill := 0
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if !adj[nbrs[i]][nbrs[j]] {
					fill++
				}
			}
		}
		if best == -1 || fill < bestFill || (fill == bestFill && v < best) {
			best, bestFill = v, fill
		}
	}
	return best
}

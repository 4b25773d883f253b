// Package reduction implements the paper's Section 4 hardness
// machinery: the Lemma 2 construction of a generalised t-graph (B, X)
// from a host graph H and a wide generalised t-graph (S, X), and the
// end-to-end fpt-reduction from p-CLIQUE to p-co-wdEVAL that underlies
// Theorem 2 (W[1]-hardness for classes of unbounded domination width).
//
// Where the paper invokes the Excluded Grid Theorem to obtain a
// (k × C(k,2))-grid minor inside any graph of huge treewidth, this
// implementation uses query families whose Gaifman graphs are grids,
// so the minor map γ is available exactly (see DESIGN.md §3,
// "Substitutions"); everything downstream of γ — the variable set 𝒱,
// the projections Π, the consistency conditions (†), the sets Tr, Tr′
// and Tr0, the freezing Ψ and the mapping µ — follows the paper's
// Appendix 7.1 construction literally.
package reduction

import (
	"fmt"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// Instance is one compiled p-CLIQUE → p-co-wdEVAL reduction instance.
type Instance struct {
	// K is the clique size sought in H.
	K int
	// H is the host graph.
	H *graphalg.UGraph
	// Forest is the well-designed pattern forest (the query P), a
	// member of the unbounded-domination-width family gen.GridChild.
	Forest ptree.Forest
	// S is the wide generalised t-graph (S_∆, vars(T)) drawn from
	// GtG(T) of the root subtree T — here pat(root) ∪ pat(child).
	S hom.GTGraph
	// B is the Lemma 2 construction.
	B hom.GTGraph
	// G is B with its variables frozen into IRIs (the paper's Ψ(B)).
	G *rdf.Graph
	// Mu is the mapping {?u ↦ Ψ(?u)} over vars(T).
	Mu rdf.Mapping
}

// edges of H as vertex pairs (a < b).
type edge struct{ a, b int }

func (e edge) contains(v int) bool { return e.a == v || e.b == v }

// gridPos is a (row i, column p) coordinate of the (k × K)-grid,
// 1-based as in the paper.
type gridPos struct{ i, p int }

// New builds the reduction instance for clique size k ≥ 2 over host
// graph H. The query is gen.GridChild(k, C(k,2)), whose child Gaifman
// graph is exactly the (k × C(k,2))-grid, so γ is the identity minor
// map (each part is a single grid variable).
func New(k int, h *graphalg.UGraph) (*Instance, error) {
	if k < 2 {
		return nil, fmt.Errorf("reduction: clique size must be ≥ 2, got %d", k)
	}
	rho := graphalg.NewPairBijection(k)
	bigK := rho.K()

	tree := gen.GridChild(k, bigK)
	forest := ptree.Forest{tree}

	// T is the root subtree; S_∆ = pat(T) ∪ pat(child), X = vars(T).
	root := tree.Root
	child := root.Children[0]
	x := []rdf.Term{rdf.Var("u")}
	s := hom.NewGTGraph(root.Pattern.Union(child.Pattern), x)

	// Identity minor map: variable ?g_i_p sits alone at (i, p).
	position := map[rdf.Term]gridPos{}
	for i := 1; i <= k; i++ {
		for p := 1; p <= bigK; p++ {
			position[gen.GridVar(i, p)] = gridPos{i: i, p: p}
		}
	}

	b, err := buildB(rho, h, s, x, position)
	if err != nil {
		return nil, err
	}

	g, mu := freezeInstance(b, x)
	return &Instance{K: k, H: h, Forest: forest, S: s, B: b, G: g, Mu: mu}, nil
}

// NewCliqueHost builds the reduction instance from the CliqueChild
// query family instead: the child's Gaifman graph is the clique
// K_{k·C(k,2)}, and γ is a block partition of its vertices
// (graphalg.GridMinorOntoClique) — parts of size > 1 exercise the
// consistency conditions (†) across variables of a shared part, the
// general case of the paper's Appendix construction.
func NewCliqueHost(k int, h *graphalg.UGraph) (*Instance, error) {
	if k < 2 {
		return nil, fmt.Errorf("reduction: clique size must be ≥ 2, got %d", k)
	}
	rho := graphalg.NewPairBijection(k)
	bigK := rho.K()
	// Clique child over m = k·K + 1 variables so at least one part has
	// two variables.
	m := k*bigK + 1
	tree := gen.CliqueChild(m)
	forest := ptree.Forest{tree}
	root := tree.Root
	child := root.Children[0]
	x := []rdf.Term{rdf.Var("u")}
	s := hom.NewGTGraph(root.Pattern.Union(child.Pattern), x)

	mm, err := graphalg.GridMinorOntoClique(m, k, bigK)
	if err != nil {
		return nil, err
	}
	// The Gaifman vertices of the clique child are ?x1..?xm; vertex j
	// of K_m corresponds to ?x_{j+1}.
	position := map[rdf.Term]gridPos{}
	for i := 1; i <= k; i++ {
		for p := 1; p <= bigK; p++ {
			for _, v := range mm.Part(i, p) {
				position[rdf.Var(fmt.Sprintf("x%d", v+1))] = gridPos{i: i, p: p}
			}
		}
	}

	b, err := buildB(rho, h, s, x, position)
	if err != nil {
		return nil, err
	}
	g, mu := freezeInstance(b, x)
	return &Instance{K: k, H: h, Forest: forest, S: s, B: b, G: g, Mu: mu}, nil
}

// buildB is the Lemma 2 construction for a generalised t-graph whose
// free variables carry grid positions via a minor map γ (position).
// The variable set is
//
//	𝒱 = {?(v, e, i, p, ?a) | v ∈ V(H), e ∈ E(H), ?a ∈ γ(i, p),
//	                          v ∈ e ⟺ i ∈ ρ(p)},
//
// and B contains, for every triple c of C = core(S), every triple t
// with Π(t) = c whose variables satisfy the consistency conditions
// (†): two variables sharing i share v, two sharing p share e.
func buildB(rho *graphalg.PairBijection, h *graphalg.UGraph, s hom.GTGraph, x []rdf.Term, position map[rdf.Term]gridPos) (hom.GTGraph, error) {
	var hEdges []edge
	for _, e := range h.Edges() {
		hEdges = append(hEdges, edge{a: e[0], b: e[1]})
	}
	type pos = gridPos

	// The paper works with the core (C, X); for the generated families
	// the t-graph is its own core (asserted by the test suite), but we
	// compute it anyway for faithfulness.
	c := hom.Core(s)

	// choicesFor lists the (v, e) pairs admissible at grid position
	// (i, p): v ∈ e ⟺ i ∈ ρ(p).
	choicesFor := func(pt pos) [][2]int {
		var out [][2]int
		in := func(v int, e edge) bool { return e.contains(v) }
		want := rho.Contains(pt.p, pt.i)
		for ei, e := range hEdges {
			for v := 0; v < h.N(); v++ {
				if in(v, e) == want {
					out = append(out, [2]int{v, ei})
				}
			}
		}
		return out
	}

	bVar := func(v, ei int, pt pos, orig rdf.Term) rdf.Term {
		return rdf.Var(fmt.Sprintf("W_v%d_e%d_%d_%d_%s", v, ei, pt.i, pt.p, orig.Value))
	}

	var out []rdf.Triple
	for _, tri := range c.S {
		// Free variables of the triple with their positions.
		type slot struct {
			term rdf.Term
			pt   pos
		}
		var slots []slot
		ground := true
		for _, term := range tri.Vars() {
			if pt, ok := position[term]; ok {
				slots = append(slots, slot{term: term, pt: pt})
				ground = false
			}
		}
		if ground {
			// vars(t) ⊆ X: t goes into B unchanged (item 1 of Lemma 2).
			out = append(out, tri)
			continue
		}
		if len(slots) > 2 {
			return hom.GTGraph{}, fmt.Errorf("reduction: triple %s has %d free variables; the generated query families have ≤ 2 per triple", tri, len(slots))
		}
		substitute := func(assign map[rdf.Term]rdf.Term) rdf.Triple {
			conv := func(t rdf.Term) rdf.Term {
				if r, ok := assign[t]; ok {
					return r
				}
				return t
			}
			return rdf.T(conv(tri.S), conv(tri.P), conv(tri.O))
		}
		switch len(slots) {
		case 1:
			sl := slots[0]
			for _, ve := range choicesFor(sl.pt) {
				out = append(out, substitute(map[rdf.Term]rdf.Term{
					sl.term: bVar(ve[0], ve[1], sl.pt, sl.term),
				}))
			}
		case 2:
			s1, s2 := slots[0], slots[1]
			for _, ve1 := range choicesFor(s1.pt) {
				for _, ve2 := range choicesFor(s2.pt) {
					// Consistency conditions (†).
					if s1.pt.i == s2.pt.i && ve1[0] != ve2[0] {
						continue
					}
					if s1.pt.p == s2.pt.p && ve1[1] != ve2[1] {
						continue
					}
					out = append(out, substitute(map[rdf.Term]rdf.Term{
						s1.term: bVar(ve1[0], ve1[1], s1.pt, s1.term),
						s2.term: bVar(ve2[0], ve2[1], s2.pt, s2.term),
					}))
				}
			}
		}
	}
	return hom.NewGTGraph(hom.NewTGraph(out...), x), nil
}

// frozenPrefix is the paper's a_?x naming for frozen variables.
const frozenPrefix = "frozen:"

// freezeInstance applies the paper's Ψ: every variable of B becomes
// the IRI frozen:<name>; IRIs are unchanged. µ maps each distinguished
// variable to its frozen image.
func freezeInstance(b hom.GTGraph, x []rdf.Term) (*rdf.Graph, rdf.Mapping) {
	conv := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			return rdf.IRI(frozenPrefix + t.Value)
		}
		return t
	}
	g := rdf.NewGraph()
	for _, tri := range b.S {
		g.Add(rdf.T(conv(tri.S), conv(tri.P), conv(tri.O)))
	}
	mu := rdf.NewMapping()
	for _, v := range x {
		mu[v.Value] = frozenPrefix + v.Value
	}
	return g, mu
}

// HomAgreesWithClique reports the two sides of Lemma 2, item 3:
// whether (S, X) → (B, X) and whether H has a k-clique. The test suite
// asserts they coincide.
func (in *Instance) HomAgreesWithClique() (homHolds, cliqueExists bool) {
	return hom.Hom(in.S, in.B), graphalg.HasClique(in.H, in.K)
}

// SolveCliqueViaEval decides whether H contains a k-clique by running
// co-wdEVAL on the reduced instance with the natural algorithm:
// H has a k-clique ⟺ µ ∉ ⟦P⟧G (Section 4.2, correctness of the
// reduction).
func (in *Instance) SolveCliqueViaEval() bool {
	return !core.Eval(core.AlgNaive, 0, in.Forest, in.G, in.Mu)
}

// SolveClique is the convenience wrapper: build the instance for
// (H, k) and decide the clique question through co-wdEVAL.
func SolveClique(k int, h *graphalg.UGraph) (bool, error) {
	in, err := New(k, h)
	if err != nil {
		return false, err
	}
	return in.SolveCliqueViaEval(), nil
}

package ptree

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
)

// This file implements the Section 3.1 combinatorics: subtrees of a
// wdPF, supports, children assignments, the renamed t-graphs S_∆,
// validity of children assignments, and the sets GtG(T).

// Subtree is a subtree T' of a wdPT: a downward-closed set of nodes
// containing the root (the paper's definition — same root, induced
// labels).
type Subtree struct {
	Tree *Tree
	// In[id] reports membership of the node with that ID.
	In []bool
}

// NewSubtree builds a subtree of t from a node-ID set. It panics if
// the set is not downward-closed or misses the root; subtree
// construction is internal to the module.
func NewSubtree(t *Tree, ids ...int) Subtree {
	in := make([]bool, t.Size())
	for _, id := range ids {
		in[id] = true
	}
	if !in[t.Root.ID] {
		panic("ptree: subtree must contain the root")
	}
	for _, n := range t.Nodes() {
		if in[n.ID] && n.Parent != nil && !in[n.Parent.ID] {
			panic(fmt.Sprintf("ptree: subtree not downward-closed at node %d", n.ID))
		}
	}
	return Subtree{Tree: t, In: in}
}

// Nodes returns the member nodes in ID order.
func (s Subtree) Nodes() []*Node {
	var out []*Node
	for _, n := range s.Tree.Nodes() {
		if s.In[n.ID] {
			out = append(out, n)
		}
	}
	return out
}

// Size returns the number of member nodes.
func (s Subtree) Size() int {
	c := 0
	for _, b := range s.In {
		if b {
			c++
		}
	}
	return c
}

// Pattern returns pat(T').
func (s Subtree) Pattern() hom.TGraph {
	var all []rdf.Triple
	for _, n := range s.Nodes() {
		all = append(all, n.Pattern...)
	}
	return hom.NewTGraph(all...)
}

// Vars returns vars(T').
func (s Subtree) Vars() []rdf.Term { return s.Pattern().Vars() }

// Children returns the children of the subtree: nodes outside it whose
// parent is inside.
func (s Subtree) Children() []*Node {
	var out []*Node
	for _, n := range s.Tree.Nodes() {
		if !s.In[n.ID] && n.Parent != nil && s.In[n.Parent.ID] {
			out = append(out, n)
		}
	}
	return out
}

// Extend returns the subtree with one more node (which must be a child
// of s).
func (s Subtree) Extend(n *Node) Subtree {
	in := append([]bool{}, s.In...)
	in[n.ID] = true
	return Subtree{Tree: s.Tree, In: in}
}

// Key returns a canonical key for the subtree within its tree.
func (s Subtree) Key() string {
	b := make([]byte, len(s.In))
	for i, v := range s.In {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// String renders the member IDs.
func (s Subtree) String() string {
	var ids []string
	for _, n := range s.Nodes() {
		ids = append(ids, fmt.Sprint(n.ID))
	}
	return "{" + strings.Join(ids, ",") + "}"
}

// EnumerateSubtrees returns every subtree of t (all downward-closed
// node sets containing the root). The count is exponential in the
// tree size; the trees arising from queries are small.
func EnumerateSubtrees(t *Tree) []Subtree {
	base := NewSubtree(t, t.Root.ID)
	seen := map[string]bool{base.Key(): true}
	out := []Subtree{base}
	frontier := []Subtree{base}
	for len(frontier) > 0 {
		var next []Subtree
		for _, s := range frontier {
			for _, c := range s.Children() {
				e := s.Extend(c)
				if !seen[e.Key()] {
					seen[e.Key()] = true
					out = append(out, e)
					next = append(next, e)
				}
			}
		}
		frontier = next
	}
	return out
}

// CountSubtrees returns the number of subtrees of the forest —
// len(EnumerateForestSubtrees(f)) without building them — or limit+1
// as soon as the count exceeds limit: below a node the downward-closed
// sets containing it number the product over its children of one plus
// the child's own count.
func CountSubtrees(f Forest, limit int) int {
	var below func(n *Node) int
	below = func(n *Node) int {
		c := 1
		for _, ch := range n.Children {
			if c *= 1 + below(ch); c > limit {
				return limit + 1
			}
		}
		return c
	}
	total := 0
	for _, t := range f {
		if total += below(t.Root); total > limit {
			return limit + 1
		}
	}
	return total
}

// ForestSubtree is a subtree of a wdPF: a subtree of one of its trees,
// remembered with the tree's index.
type ForestSubtree struct {
	Forest    Forest
	TreeIndex int // 0-based index into Forest
	Subtree   Subtree
}

// Vars returns vars(T) of the forest subtree.
func (fs ForestSubtree) Vars() []rdf.Term { return fs.Subtree.Vars() }

// EnumerateForestSubtrees returns every subtree of every tree of F.
func EnumerateForestSubtrees(f Forest) []ForestSubtree {
	var out []ForestSubtree
	for i, t := range f {
		for _, s := range EnumerateSubtrees(t) {
			out = append(out, ForestSubtree{Forest: f, TreeIndex: i, Subtree: s})
		}
	}
	return out
}

// WitnessSubtree returns the unique subtree T' of t with
// vars(T') = vars exactly, when one exists. Uniqueness follows from NR
// normal form (see the paper's definition of supp); the witness is the
// maximal downward-closed set of nodes whose variables are contained
// in vars, provided its variable set is all of vars.
func WitnessSubtree(t *Tree, vars []rdf.Term) (Subtree, bool) {
	allowed := map[rdf.Term]bool{}
	for _, v := range vars {
		allowed[v] = true
	}
	within := func(n *Node) bool {
		for _, v := range n.Vars() {
			if !allowed[v] {
				return false
			}
		}
		return true
	}
	if !within(t.Root) {
		return Subtree{}, false
	}
	in := make([]bool, t.Size())
	in[t.Root.ID] = true
	queue := []*Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Children {
			if within(c) {
				in[c.ID] = true
				queue = append(queue, c)
			}
		}
	}
	s := Subtree{Tree: t, In: in}
	// vars(s) ⊆ allowed by construction, and both sets are
	// deduplicated, so equal sizes imply set equality.
	if len(s.Vars()) != len(allowed) {
		return Subtree{}, false
	}
	return s, true
}

// Support computes supp(T) for a forest subtree: the indices i (0-based)
// such that tree Ti has a subtree with the same variable set, together
// with the witness subtrees T^sp(i).
func Support(fs ForestSubtree) (indices []int, witnesses map[int]Subtree) {
	return support(fs.Forest, fs.Vars())
}

func support(f Forest, vars []rdf.Term) (indices []int, witnesses map[int]Subtree) {
	witnesses = map[int]Subtree{}
	for i, t := range f {
		if w, ok := WitnessSubtree(t, vars); ok {
			indices = append(indices, i)
			witnesses[i] = w
		}
	}
	return indices, witnesses
}

// ChildrenAssignment is a ∆ ∈ CA(T): a function with non-empty domain
// dom(∆) ⊆ supp(T) mapping each i to a child of T^sp(i).
type ChildrenAssignment struct {
	// Assign maps a support index i (0-based tree index) to the chosen
	// child node of T^sp(i).
	Assign map[int]*Node
}

// Dom returns dom(∆) sorted.
func (ca ChildrenAssignment) Dom() []int {
	out := make([]int, 0, len(ca.Assign))
	for i := range ca.Assign {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// caScope is what every children assignment of one forest subtree T
// shares: pat(T) and vars(T), the support with its witnesses and their
// source graphs (pat(T^sp(i)), vars(T)), and the names of vars(F),
// which fresh variables avoid. GtG builds it once per subtree.
type caScope struct {
	base      hom.TGraph // pat(T)
	x         []rdf.Term // vars(T)
	keep      map[rdf.Term]bool
	used      map[string]bool // names of vars(F)
	indices   []int
	witnesses map[int]Subtree
	sources   map[int]hom.GTGraph
}

func newCAScope(fs ForestSubtree) *caScope {
	base := fs.Subtree.Pattern()
	sc := &caScope{base: base, x: base.Vars(), keep: map[rdf.Term]bool{}, used: map[string]bool{},
		sources: map[int]hom.GTGraph{}}
	for _, v := range sc.x {
		sc.keep[v] = true
	}
	for _, v := range fs.Forest.Vars() {
		sc.used[v.Value] = true
	}
	sc.indices, sc.witnesses = support(fs.Forest, sc.x)
	for _, i := range sc.indices {
		sc.sources[i] = hom.NewGTGraph(sc.witnesses[i].Pattern(), sc.x)
	}
	return sc
}

// EnumerateCA returns CA(T), the set of all children assignments of
// the forest subtree.
func EnumerateCA(fs ForestSubtree) []ChildrenAssignment {
	return newCAScope(fs).assignments()
}

func (sc *caScope) assignments() []ChildrenAssignment {
	type choice struct {
		idx      int
		children []*Node
	}
	var choices []choice
	for _, i := range sc.indices {
		cs := sc.witnesses[i].Children()
		if len(cs) > 0 {
			choices = append(choices, choice{idx: i, children: cs})
		}
	}
	var out []ChildrenAssignment
	assign := map[int]*Node{}
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(choices) {
			if len(assign) > 0 {
				cp := make(map[int]*Node, len(assign))
				for k, v := range assign {
					cp[k] = v
				}
				out = append(out, ChildrenAssignment{Assign: cp})
			}
			return
		}
		// Option: i ∉ dom(∆).
		rec(pos + 1)
		for _, c := range choices[pos].children {
			assign[choices[pos].idx] = c
			rec(pos + 1)
			delete(assign, choices[pos].idx)
		}
	}
	rec(0)
	return out
}

// SDelta builds the t-graph S_∆ = pat(T) ∪ ⋃_{i ∈ dom(∆)} ρ_∆(i),
// where ρ_∆(i) renames the variables of pat(∆(i)) outside vars(T) to
// fresh variables (distinct across different i).
func SDelta(fs ForestSubtree, ca ChildrenAssignment) hom.TGraph {
	return newCAScope(fs).sDelta(ca)
}

func (sc *caScope) sDelta(ca ChildrenAssignment) hom.TGraph {
	all := append([]rdf.Triple{}, sc.base...)
	var fresh []string // the names this S_∆ has taken so far
	for _, i := range ca.Dom() {
		n := ca.Assign[i]
		ren := map[rdf.Term]rdf.Term{}
		for _, v := range n.Vars() {
			if !sc.keep[v] {
				ren[v] = sc.freshVar(v.Value, i, &fresh)
			}
		}
		for _, t := range n.Pattern {
			all = append(all, renameTriple(t, ren))
		}
	}
	return hom.NewTGraph(all...)
}

// freshVar names base's copy for support index i: base~i, primed until
// it clashes with no variable of F and no name this S_∆ already took.
func (sc *caScope) freshVar(base string, i int, fresh *[]string) rdf.Term {
	name := base + "~" + strconv.Itoa(i)
	for sc.used[name] || slices.Contains(*fresh, name) {
		name += "'"
	}
	*fresh = append(*fresh, name)
	return rdf.Var(name)
}

func renameTriple(t rdf.Triple, ren map[rdf.Term]rdf.Term) rdf.Triple {
	conv := func(x rdf.Term) rdf.Term {
		if r, ok := ren[x]; ok {
			return r
		}
		return x
	}
	return rdf.T(conv(t.S), conv(t.P), conv(t.O))
}

// IsValidCA reports whether ∆ ∈ VCA(T): for every i ∈ supp(T) \ dom(∆),
// (pat(T^sp(i)), vars(T)) does not map homomorphically into
// (S_∆, vars(T)).
func IsValidCA(fs ForestSubtree, ca ChildrenAssignment) bool {
	sc := newCAScope(fs)
	return sc.valid(ca, hom.NewGTGraph(sc.sDelta(ca), sc.x))
}

// valid is IsValidCA with target = (S_∆, vars(T)) already built.
func (sc *caScope) valid(ca ChildrenAssignment, target hom.GTGraph) bool {
	for _, i := range sc.indices {
		if _, inDom := ca.Assign[i]; inDom {
			continue
		}
		if hom.Hom(sc.sources[i], target) {
			return false
		}
	}
	return true
}

// GtG returns the paper's GtG(T): the generalised t-graphs
// (S_∆, vars(T)) over all valid children assignments ∆ ∈ VCA(T).
func GtG(fs ForestSubtree) []hom.GTGraph {
	sc := newCAScope(fs)
	var out []hom.GTGraph
	seen := map[string]bool{}
	for _, ca := range sc.assignments() {
		g := hom.NewGTGraph(sc.sDelta(ca), sc.x)
		if !sc.valid(ca, g) {
			continue
		}
		k := g.S.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

package core

import (
	"context"
	"sync"

	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// This file is the cross-tree dedup of a UNION forest F = {T₁…Tₙ}
// without a seen-set. ⟦F⟧G = ⟦T₁⟧G ∪ … ∪ ⟦Tₙ⟧G and each tree streams its
// own answers without repeats, so a row of tree j repeats an earlier
// row iff it is in ⟦Tᵢ⟧G for some i < j: wdEVAL on the one-tree forest
// {Tᵢ}, which an Evaluator decides exactly. Two slot masks per tree
// settle most rows in constant time first — every answer of Tᵢ binds
// only slots of vars(Tᵢ) and all of its root node's — and only rows
// that pass both reach Decide. The test holds no per-row state, so an
// execution costs memory per cached decision plan, not per row, and
// parallel workers run it in place.

// slotSet is a bitset over the slots of a layout.
type slotSet []uint64

func newSlotSet(width int) slotSet { return make(slotSet, (width+63)/64) }

func (s slotSet) add(slot int) { s[slot/64] |= 1 << (slot % 64) }

func (s slotSet) subsetOf(t slotSet) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

// membership is the cross-tree membership test of one compiled forest,
// shared by every view (Tuned, Project) of the program.
type membership struct {
	trees  ptree.Forest
	g      *rdf.Graph
	layout *rdf.SlotLayout // the forest layout rows arrive in
	binds  []slotSet       // per tree: the slots its nodes mention
	roots  []slotSet       // per tree: the slots of its root node

	// One evaluator per tree but the last (no row is ever tested
	// against it), built on the first row both masks pass; gather[i]
	// maps evaluator i's slots to forest slots.
	once   sync.Once
	evals  []*Evaluator
	gather [][]int32
}

// newMembership returns the membership test of a compiled multi-tree
// forest, or nil when the forest keeps the seen-set: one tree (nothing
// to dedup), FILTER arms (Decide is filter-blind), or a tree outside NR
// normal form (its witness subtrees are not unique, and Decide relies on
// them). layout must hold every forest variable.
func newMembership(f ptree.Forest, layout *rdf.SlotLayout, g *rdf.Graph) *membership {
	if len(f) < 2 || f.HasFilters() {
		return nil
	}
	width := layout.Width()
	m := &membership{trees: f, g: g, layout: layout}
	for _, t := range f {
		nodes := make([]slotSet, t.Size()) // node IDs are BFS order: parents first
		binds := newSlotSet(width)
		for _, n := range t.Nodes() {
			s := newSlotSet(width)
			for _, v := range n.Vars() {
				slot, _ := layout.Slot(v.Value)
				s.add(slot)
			}
			if n.Parent != nil && s.subsetOf(nodes[n.Parent.ID]) {
				return nil
			}
			nodes[n.ID] = s
			for i, w := range s {
				binds[i] |= w
			}
		}
		m.binds = append(m.binds, binds)
		m.roots = append(m.roots, nodes[0])
	}
	return m
}

// evaluators builds the per-tree evaluators once. They run AlgAuto
// whatever algorithm the engine's Ask uses: the test must be exact, and
// a pebble game at a k below dw(Tᵢ) may reject a member, which would
// stream a duplicate.
func (m *membership) evaluators() {
	m.once.Do(func() {
		for _, t := range m.trees[:len(m.trees)-1] {
			e := NewEvaluator(AlgAuto, 0, ptree.Forest{t}, m.g)
			gather := make([]int32, e.layout.Width())
			for s := range gather {
				fs, _ := m.layout.Slot(e.layout.Name(s))
				gather[s] = int32(fs)
			}
			m.evals = append(m.evals, e)
			m.gather = append(m.gather, gather)
		}
	})
}

// memberTest is one execution's (or one parallel worker's) scratch for
// the membership test.
type memberTest struct {
	m     *membership
	ctx   context.Context
	bound slotSet // the slots the tested row binds
	row   rdf.Row // the tested row in an evaluator's layout
}

// repeats reports whether r, a row of tree j, is in ⟦Tᵢ⟧G for some
// i < j — i.e. whether the stream already carried it. The error is the
// context's, from inside a decision.
func (x *memberTest) repeats(j int, r rdf.Row) (bool, error) {
	m := x.m
	clear(x.bound)
	for s, v := range r {
		if v != rdf.Unbound {
			x.bound.add(s)
		}
	}
	for i := 0; i < j; i++ {
		if !x.bound.subsetOf(m.binds[i]) || !m.roots[i].subsetOf(x.bound) {
			continue
		}
		m.evaluators()
		gather := m.gather[i]
		row := x.row[:len(gather)]
		for s, fs := range gather {
			row[s] = r[fs]
		}
		if member, err := m.evals[i].decideRow(x.ctx, row); member || err != nil {
			return member, err
		}
	}
	return false, nil
}

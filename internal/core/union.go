package core

import (
	"context"
	"sync"

	"wdsparql/internal/rdf"
)

// This file is the cross-tree dedup of a UNION forest F = {T₁…Tₙ}
// without a seen-set. ⟦F⟧G = ⟦T₁⟧G ∪ … ∪ ⟦Tₙ⟧G and each tree streams its
// own answers without repeats, so a row of tree j repeats an earlier
// row iff it is in ⟦Tᵢ⟧G for some i < j: wdEVAL on the one-tree forest
// {Tᵢ}, which a decision view of Tᵢ's compiled nodes decides exactly.
// Two slot masks per tree settle most rows in constant time first —
// every answer of Tᵢ binds only slots of vars(Tᵢ) and all of its root
// node's — and only rows that pass both reach the decision, in the
// forest layout they were enumerated in. The test holds no per-row
// state, so an execution costs memory per cached decision plan, not
// per row, and parallel workers run it in place.

// membership is the cross-tree membership test of one compiled forest,
// shared by every view (Tuned, Project) of the program.
type membership struct {
	fp    *ForestProgram
	binds []slotSet // per tree: the slots its nodes mention

	// One decision view per tree but the last (no row is ever tested
	// against it), built on the first row both masks pass.
	once  sync.Once
	views []*Evaluator
}

// newMembership returns the membership test of a compiled multi-tree
// forest, or nil when the forest keeps the seen-set: one tree (nothing
// to dedup), FILTER arms (decisions are filter-blind), or a tree
// outside NR normal form (its witness subtrees are not unique, and the
// decision relies on them).
func newMembership(fp *ForestProgram) *membership {
	if len(fp.roots) < 2 || fp.forest.HasFilters() {
		return nil
	}
	m := &membership{fp: fp}
	for _, r := range fp.roots {
		binds := newSlotSet(fp.layout.Width())
		if !cover(r, binds) {
			return nil
		}
		m.binds = append(m.binds, binds)
	}
	return m
}

// cover adds the slots of n's subtree to binds; false when some node
// below n mentions only slots its parent does (NR normal form fails).
func cover(n *compiledNode, binds slotSet) bool {
	n.prog.MarkSlots(binds)
	for _, c := range n.children {
		if c.slots.subsetOf(n.slots) || !cover(c, binds) {
			return false
		}
	}
	return true
}

// view returns tree i's decision view, building all of them once. They
// run AlgAuto whatever algorithm the engine's Ask uses, each with its
// own tree's width dw({Tᵢ}): the test must be exact, Theorem 1 on the
// forest {Tᵢ} makes that pebble count complete, and a game at a k below
// it may reject a member, which would stream a duplicate.
func (m *membership) view(i int) *Evaluator {
	m.once.Do(func() {
		for t := range m.fp.roots[:len(m.fp.roots)-1] {
			tree := *m.fp
			tree.roots, tree.forest = m.fp.roots[t:t+1], m.fp.forest[t:t+1]
			m.views = append(m.views, newView(AlgAuto, 0, &tree))
		}
	})
	return m.views[i]
}

// memberTest is one execution's (or one parallel worker's) scratch for
// the membership test.
type memberTest struct {
	m     *membership
	ctx   context.Context
	bound slotSet // the slots the tested row binds
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
		if !x.bound.subsetOf(m.binds[i]) || !m.fp.roots[i].slots.subsetOf(x.bound) {
			continue
		}
		if member, err := m.view(i).decideRow(x.ctx, r); member || err != nil {
			return member, err
		}
	}
	return false, nil
}

package core

import (
	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// This file is the bridge from the sparql filter/projection surface to
// the compiled row pipeline: FILTER conjuncts lower to the hom
// slot-level IR (pushed into the node's RowProgram when local,
// evaluated at the subtree's emit point when they reach into optional
// descendants), and SELECT projection/DISTINCT become an output layout
// plus a dedup keyed on the projected row.

// compileFilterExpr lowers a filter expression onto the forest layout:
// variables become slots, IRI constants become TermIDs (rdf.Unbound
// when outside the dictionary — unequal to every bound value), and
// constant-vs-constant comparisons fold to FOpTrue/FOpFalse on the
// original strings (two distinct out-of-dictionary IRIs must not
// collide on the sentinel). Every variable of the expression is
// already interned by the time this runs — node filters lower after
// the node's pattern (local conjuncts) or after its children
// (deferred conjuncts), and the safety condition keeps filter
// variables inside the subtree.
func compileFilterExpr(e sparql.Expr, layout *rdf.SlotLayout, dict *rdf.Dict) *hom.FilterExpr {
	switch q := e.(type) {
	case sparql.Cmp:
		op := hom.FOpEq
		if q.Neq {
			op = hom.FOpNe
		}
		if !q.Left.IsVar() && !q.Right.IsVar() {
			lid, lok := dict.LookupIRI(q.Left.Value)
			rid, rok := dict.LookupIRI(q.Right.Value)
			equal := (lok && rok && lid == rid) || (!lok && !rok && q.Left.Value == q.Right.Value)
			if equal != q.Neq {
				return &hom.FilterExpr{Op: hom.FOpTrue}
			}
			return &hom.FilterExpr{Op: hom.FOpFalse}
		}
		out := &hom.FilterExpr{Op: op, ASlot: -1, BSlot: -1}
		if q.Left.IsVar() {
			out.ASlot = int32(layout.Intern(q.Left.Value))
		} else if id, ok := dict.LookupIRI(q.Left.Value); ok {
			out.AConst = id
		} else {
			out.AConst = rdf.Unbound
		}
		if q.Right.IsVar() {
			out.BSlot = int32(layout.Intern(q.Right.Value))
		} else if id, ok := dict.LookupIRI(q.Right.Value); ok {
			out.BConst = id
		} else {
			out.BConst = rdf.Unbound
		}
		return out
	case sparql.Bound:
		return &hom.FilterExpr{Op: hom.FOpBound, ASlot: int32(layout.Intern(q.Var.Value)), BSlot: -1}
	case sparql.ExprBinary:
		op := hom.FOpAnd
		if q.Op == sparql.ExprOr {
			op = hom.FOpOr
		}
		return &hom.FilterExpr{
			Op: op, ASlot: -1, BSlot: -1,
			X: compileFilterExpr(q.Left, layout, dict),
			Y: compileFilterExpr(q.Right, layout, dict),
		}
	case sparql.ExprNot:
		return &hom.FilterExpr{Op: hom.FOpNot, ASlot: -1, BSlot: -1, X: compileFilterExpr(q.X, layout, dict)}
	}
	panic("core: unknown filter expression type")
}

// Project returns a view of the program whose streams emit only the
// given variables, in declared order (nil or empty = every forest
// variable, i.e. SELECT *), deduplicated on the projected row when
// distinct is set. Layout() on the view returns the projected layout.
// Like Tuned, the view shares all compiled state with fp; projection
// composes with any tuning applied before or after.
//
// The stream contract under projection: without distinct, every full
// solution emits one projected row (duplicates reflect multiplicity of
// full solutions agreeing on the projection, cross-tree duplicates
// still collapse); with distinct, each projected row appears exactly
// once, in order of first appearance — which also subsumes the
// cross-tree dedup, since identical full rows project identically.
func (fp *ForestProgram) Project(vars []string, distinct bool) *ForestProgram {
	out := *fp
	proj := rdf.NewSlotLayout()
	if len(vars) == 0 {
		out.projSlots = make([]int32, fp.layout.Width())
		for s := 0; s < fp.layout.Width(); s++ {
			proj.Intern(fp.layout.Name(s))
			out.projSlots[s] = int32(s)
		}
	} else {
		out.projSlots = make([]int32, 0, len(vars))
		for _, v := range vars {
			proj.Intern(v)
			if s, ok := fp.layout.Slot(v); ok {
				out.projSlots = append(out.projSlots, int32(s))
			} else {
				out.projSlots = append(out.projSlots, -1)
			}
		}
	}
	out.outLayout = proj
	out.distinct = distinct
	return &out
}

// Projected reports whether the program carries a projection (or
// DISTINCT) wrapper, and Distinct whether its output deduplicates.
func (fp *ForestProgram) Projected() bool { return fp.outLayout != nil }

// Distinct reports whether the program's output is deduplicated on the
// projected row.
func (fp *ForestProgram) Distinct() bool { return fp.distinct }

// OutputVars returns the projected variable names in declared order,
// nil when the program is unprojected.
func (fp *ForestProgram) OutputVars() []string {
	if fp.outLayout == nil {
		return nil
	}
	out := make([]string, fp.outLayout.Width())
	for i := range out {
		out[i] = fp.outLayout.Name(i)
	}
	return out
}

// wrapOutput adapts a caller's yield to the program's output contract:
// identity when unprojected, otherwise projection onto the output
// layout plus the DISTINCT dedup. The projected row passed on is a
// reused buffer — valid only during the call, like every streamed row.
func (fp *ForestProgram) wrapOutput(yield func(rdf.Row) bool) func(rdf.Row) bool {
	if fp.outLayout == nil {
		return yield
	}
	buf := fp.outLayout.NewRow()
	var seen *rdf.IDMappingSet
	if fp.distinct {
		seen = rdf.NewIDMappingSet(fp.outLayout)
	}
	return func(r rdf.Row) bool {
		for i, s := range fp.projSlots {
			if s >= 0 {
				buf[i] = r[s]
			} else {
				buf[i] = rdf.Unbound
			}
		}
		if seen != nil && !seen.Add(buf) {
			return true
		}
		return yield(buf)
	}
}

// passesDeferred reports whether the state's current row satisfies
// every deferred filter of the node — evaluated at the node's subtree
// emit point, where the row holds the maximal extension the filter's
// scope ranges over. Only three-valued true keeps the row.
func (st *enumState) passesDeferred(n *compiledNode) bool {
	for _, f := range n.deferred {
		if f.Eval(st.row) != hom.TriTrue {
			return false
		}
	}
	return true
}

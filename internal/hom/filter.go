package hom

import (
	"sort"

	"wdsparql/internal/rdf"
)

// Filter pushdown: compiled FILTER conjuncts evaluated inside the
// row-native search at the earliest moment every slot they mention is
// bound, pruning the subtree below a failing binding before it is
// explored. The stream contract is preserved exactly: a pushed filter
// only *skips* candidate bindings Run would otherwise descend into —
// pattern selection (which counts graph matches, not filtered
// matches) and candidate order are untouched — so Run with pushed
// filters emits precisely the subsequence of the unfiltered stream
// whose rows satisfy the filters, in the same order. SplitTop/RunOn
// inherit the property: the same filters are seeded at every entry
// point, so parallel streams stay byte-identical to sequential ones.
//
// The caller (internal/core) is responsible for attaching only *local*
// conjuncts: every slot of an attached filter must be an entry slot
// (bound before Run starts) or a variable of some compiled pattern.
// Under that contract every attached filter is fully bound by the time
// a complete match is yielded, so no yielded row escapes its filters.

// FilterOp identifies a compiled filter node.
type FilterOp uint8

const (
	// FOpEq compares its two operands for equality.
	FOpEq FilterOp = iota
	// FOpNe compares its two operands for inequality.
	FOpNe
	// FOpBound tests whether slot A is bound. It never errors.
	FOpBound
	// FOpAnd is three-valued conjunction of X and Y.
	FOpAnd
	// FOpOr is three-valued disjunction of X and Y.
	FOpOr
	// FOpNot is three-valued negation of X.
	FOpNot
	// FOpTrue is the constant true (compile-time folded comparisons).
	FOpTrue
	// FOpFalse is the constant false.
	FOpFalse
)

// Tri is a three-valued truth value mirroring SPARQL's true / false /
// error, kept separate from internal/sparql so this package stays a
// pure slot-level backend.
type Tri int8

const (
	// TriFalse is boolean false.
	TriFalse Tri = iota
	// TriTrue is boolean true; the only value that keeps a row.
	TriTrue
	// TriErr is the error produced by comparing an unbound slot.
	TriErr
)

// FilterExpr is a compiled filter over layout slots. Comparison
// operands are either a slot (ASlot/BSlot ≥ 0) or a constant TermID
// (slot = -1); a constant of rdf.Unbound encodes an IRI outside the
// graph's dictionary, which compares unequal to every bound value.
// Constant-vs-constant comparisons must be folded to FOpTrue/FOpFalse
// by the compiler (two distinct out-of-dictionary IRIs would otherwise
// compare equal). Immutable after construction and safe for concurrent
// Eval.
type FilterExpr struct {
	Op           FilterOp
	ASlot, BSlot int32
	AConst       rdf.TermID
	BConst       rdf.TermID
	X, Y         *FilterExpr // operands of And/Or (Y nil for Not)
}

// Eval evaluates the filter against a row under the three-valued
// semantics: a comparison on an unbound slot errors, BOUND never
// errors, AND(false, err) = false, OR(true, err) = true, NOT err =
// err.
func (f *FilterExpr) Eval(row rdf.Row) Tri {
	switch f.Op {
	case FOpEq, FOpNe:
		a := f.AConst
		if f.ASlot >= 0 {
			if a = row[f.ASlot]; a == rdf.Unbound {
				return TriErr
			}
		}
		b := f.BConst
		if f.BSlot >= 0 {
			if b = row[f.BSlot]; b == rdf.Unbound {
				return TriErr
			}
		}
		if (a == b) != (f.Op == FOpNe) {
			return TriTrue
		}
		return TriFalse
	case FOpBound:
		if row[f.ASlot] != rdf.Unbound {
			return TriTrue
		}
		return TriFalse
	case FOpAnd:
		l, r := f.X.Eval(row), f.Y.Eval(row)
		if l == TriFalse || r == TriFalse {
			return TriFalse
		}
		if l == TriErr || r == TriErr {
			return TriErr
		}
		return TriTrue
	case FOpOr:
		l, r := f.X.Eval(row), f.Y.Eval(row)
		if l == TriTrue || r == TriTrue {
			return TriTrue
		}
		if l == TriErr || r == TriErr {
			return TriErr
		}
		return TriFalse
	case FOpNot:
		switch f.X.Eval(row) {
		case TriTrue:
			return TriFalse
		case TriFalse:
			return TriTrue
		}
		return TriErr
	case FOpTrue:
		return TriTrue
	}
	return TriFalse // FOpFalse
}

// Slots returns the sorted set of slots the filter reads.
func (f *FilterExpr) Slots() []int32 {
	seen := map[int32]bool{}
	var out []int32
	var walk func(e *FilterExpr)
	walk = func(e *FilterExpr) {
		switch e.Op {
		case FOpEq, FOpNe:
			for _, s := range [2]int32{e.ASlot, e.BSlot} {
				if s >= 0 && !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
		case FOpBound:
			if !seen[e.ASlot] {
				seen[e.ASlot] = true
				out = append(out, e.ASlot)
			}
		case FOpAnd, FOpOr:
			walk(e.X)
			walk(e.Y)
		case FOpNot:
			walk(e.X)
		}
	}
	walk(f)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// progFilter is one attached filter plus its precomputed slot set.
type progFilter struct {
	expr  *FilterExpr
	slots []int32
}

// AttachFilter attaches a compiled filter conjunct to the program, to
// be evaluated by every searcher at the earliest point all its slots
// are bound. Must be called before NewSearcher and before the plan is
// built (attached equality-with-constant filters sharpen the plan's
// selectivity estimates; see PlanLazily). The locality contract is the
// caller's: every slot must be an entry slot or a pattern variable of
// this program.
func (p *RowProgram) AttachFilter(f *FilterExpr) {
	slots := f.Slots()
	for _, s := range slots {
		if int(s)+1 > p.width {
			p.width = int(s) + 1
		}
	}
	p.filters = append(p.filters, progFilter{expr: f, slots: slots})
}

// restrictedSlots returns the slots pinned to a single value by an
// attached top-level equality against a constant — the planner treats
// them as pre-bound when costing join orders, because the pushdown
// prunes every other value the moment the slot binds.
func (p *RowProgram) restrictedSlots() []int32 {
	var out []int32
	for _, f := range p.filters {
		e := f.expr
		if e.Op != FOpEq {
			continue
		}
		if e.ASlot >= 0 && e.BSlot < 0 {
			out = append(out, e.ASlot)
		} else if e.BSlot >= 0 && e.ASlot < 0 {
			out = append(out, e.BSlot)
		}
	}
	return out
}

// initFilterScratch sizes the searcher's filter scratch: the per-filter
// count of still-unbound slots and, per slot, the filters watching it.
func (s *RowSearcher) initFilterScratch() {
	p := s.prog
	if len(p.filters) == 0 {
		return
	}
	s.fRemaining = make([]int32, len(p.filters))
	s.fWatch = make([][]int32, p.width)
	for fi, f := range p.filters {
		for _, slot := range f.slots {
			s.fWatch[slot] = append(s.fWatch[slot], int32(fi))
		}
	}
}

// seedFilters counts each filter's unbound slots under the entry row
// and evaluates the already-complete ones. It reports false when a
// complete filter fails — the whole search is then an empty stream.
func (s *RowSearcher) seedFilters(assign rdf.Row) bool {
	if s.fRemaining == nil {
		return true
	}
	for fi := range s.prog.filters {
		f := &s.prog.filters[fi]
		var rem int32
		for _, slot := range f.slots {
			if assign[slot] == rdf.Unbound {
				rem++
			}
		}
		s.fRemaining[fi] = rem
		if rem == 0 && f.expr.Eval(assign) != TriTrue {
			return false
		}
	}
	return true
}

package sparql

import (
	"wdsparql/internal/rdf"
)

// This file implements the compositional bottom-up semantics ⟦P⟧G of
// Pérez, Arenas and Gutierrez, exactly as restated in Section 2 of the
// paper:
//
//	⟦t⟧G            = {µ | dom(µ) = vars(t), µ(t) ∈ G}
//	⟦P1 AND P2⟧G    = {µ1 ∪ µ2 | µi ∈ ⟦Pi⟧G compatible}
//	⟦P1 OPT P2⟧G    = ⟦P1 AND P2⟧G ∪ {µ1 ∈ ⟦P1⟧G | no compatible µ2 ∈ ⟦P2⟧G}
//	⟦P1 UNION P2⟧G  = ⟦P1⟧G ∪ ⟦P2⟧G
//
// Evaluation is ID-native: the pattern's variables are compiled to a
// SlotLayout once, intermediate results are rdf.IDMappingSets of flat
// rows, compatibility and union are slot-wise array operations with
// the candidate shared slots (vars(P1) ∩ vars(P2)) computed once per
// operator, and strings are only touched when the final result is
// decoded at the Eval boundary. It still materialises full
// intermediate results and is therefore exponential in the worst
// case; it serves as the ground-truth reference implementation against
// which the wdPT evaluators of internal/core are cross-validated, and
// as the PSPACE-flavoured baseline of the benchmark harness.

// rowEvaluator carries the per-query compilation: the slot layout of
// vars(P) and the graph the pattern is evaluated against.
type rowEvaluator struct {
	g      *rdf.Graph
	layout *rdf.SlotLayout
}

func newRowEvaluator(p Pattern, g *rdf.Graph) *rowEvaluator {
	layout := rdf.NewSlotLayout()
	for _, v := range Vars(p) {
		layout.Intern(v.Value)
	}
	return &rowEvaluator{g: g, layout: layout}
}

func (e *rowEvaluator) newSet() *rdf.IDMappingSet {
	return rdf.NewIDMappingSet(e.layout)
}

// sharedSlots returns the slots of vars(l) ∩ vars(r) — the only slots
// two sub-results can both bind, hence the only slots compatibility
// must inspect. Computed once per binary operator, not per row pair.
func (e *rowEvaluator) sharedSlots(l, r Pattern) []int {
	inL := map[int]bool{}
	for _, v := range Vars(l) {
		if s, ok := e.layout.Slot(v.Value); ok {
			inL[s] = true
		}
	}
	var out []int
	for _, v := range Vars(r) {
		if s, ok := e.layout.Slot(v.Value); ok && inL[s] {
			out = append(out, s)
		}
	}
	return out
}

// compatibleRows reports µ1 ~ µ2 given the operator's shared slots.
func compatibleRows(a, b rdf.Row, shared []int) bool {
	for _, s := range shared {
		if va, vb := a[s], b[s]; va != rdf.Unbound && vb != rdf.Unbound && va != vb {
			return false
		}
	}
	return true
}

// unionRows writes µ1 ∪ µ2 into buf (full width; µ1 wins where both
// are bound, which is sound because compatibility was checked).
func unionRows(a, b rdf.Row, buf rdf.Row) rdf.Row {
	for i := range buf {
		if a[i] != rdf.Unbound {
			buf[i] = a[i]
		} else {
			buf[i] = b[i]
		}
	}
	return buf
}

// evalTriple computes the base case ⟦t⟧G as rows.
func (e *rowEvaluator) evalTriple(t rdf.Triple) *rdf.IDMappingSet {
	out := e.newSet()
	var ip rdf.IDTriple
	var slotAt [3]int
	for i, term := range t.Terms() {
		if term.IsVar() {
			s, ok := e.layout.Slot(term.Value)
			if !ok {
				// Cannot happen: the layout interned vars(P) ⊇ vars(t).
				panic("sparql: triple variable missing from layout")
			}
			slotAt[i] = s
			ip[i] = rdf.VarID(s)
			continue
		}
		slotAt[i] = -1
		id, ok := e.g.Dict().LookupIRI(term.Value)
		if !ok {
			return out // constant not in G: no matches
		}
		ip[i] = id
	}
	row := e.layout.NewRow()
	// The base's candidates, then the delta tier's and the overlay's:
	// insertion order.
	base, delta, tail := e.g.LookupSegmentsID(ip)
	exact := rdf.ExactPattern(ip)
	for _, seg := range [3][]rdf.IDTriple{base, delta, tail} {
		for _, tr := range seg {
			if !exact && !rdf.MatchesPatternID(ip, tr) {
				continue
			}
			for i := 0; i < 3; i++ {
				if slotAt[i] >= 0 {
					row[slotAt[i]] = tr[i]
				}
			}
			out.Add(row)
			for i := 0; i < 3; i++ {
				if slotAt[i] >= 0 {
					row[slotAt[i]] = rdf.Unbound
				}
			}
		}
	}
	return out
}

// eval computes ⟦P⟧G as rows with nested-loop join operators (the
// reference semantics, executable line by line against the paper).
func (e *rowEvaluator) eval(p Pattern) *rdf.IDMappingSet {
	switch q := p.(type) {
	case Triple:
		return e.evalTriple(q.T)
	case Binary:
		left := e.eval(q.Left)
		right := e.eval(q.Right)
		switch q.Op {
		case OpAnd:
			return e.join(left, right, e.sharedSlots(q.Left, q.Right))
		case OpOpt:
			return e.leftOuter(left, right, e.sharedSlots(q.Left, q.Right))
		case OpUnion:
			out := e.newSet()
			out.AddAll(left)
			out.AddAll(right)
			return out
		}
	case Filter:
		return e.applyFilter(e.eval(q.Where), q.Cond)
	}
	panic("sparql: unknown pattern type in Eval")
}

// applyFilter computes σ_R(set): the rows on which the condition
// evaluates to true under the three-valued semantics.
func (e *rowEvaluator) applyFilter(set *rdf.IDMappingSet, cond Expr) *rdf.IDMappingSet {
	out := e.newSet()
	slotOf := e.layout.Slot
	lookup := e.g.Dict().LookupIRI
	set.Each(func(r rdf.Row) bool {
		if EvalExpr(cond, r, slotOf, lookup) == TriTrue {
			out.Add(r)
		}
		return true
	})
	return out
}

// projectIDSet maps a full-width result set onto the projection of a
// SELECT: a fresh layout holding the projected variables in declared
// order (or every variable for SELECT *). Sets are deduplicated by
// construction, so the result is the DISTINCT projection either way —
// the streaming pipeline's non-DISTINCT duplicate multiplicity has no
// set-level counterpart.
func projectIDSet(set *rdf.IDMappingSet, vars []rdf.Term) *rdf.IDMappingSet {
	full := set.Layout()
	proj := rdf.NewSlotLayout()
	var slots []int
	if len(vars) == 0 {
		for s := 0; s < full.Width(); s++ {
			proj.Intern(full.Name(s))
			slots = append(slots, s)
		}
	} else {
		for _, v := range vars {
			proj.Intern(v.Value)
			s, ok := full.Slot(v.Value)
			if !ok {
				s = -1 // projected var absent from the pattern: stays unbound
			}
			slots = append(slots, s)
		}
	}
	out := rdf.NewIDMappingSet(proj)
	buf := proj.NewRow()
	set.Each(func(r rdf.Row) bool {
		for i, s := range slots {
			if s >= 0 {
				buf[i] = r[s]
			} else {
				buf[i] = rdf.Unbound
			}
		}
		out.Add(buf)
		return true
	})
	return out
}

// join computes {µ1 ∪ µ2 | compatible}.
func (e *rowEvaluator) join(a, b *rdf.IDMappingSet, shared []int) *rdf.IDMappingSet {
	out := e.newSet()
	buf := e.layout.NewRow()
	a.Each(func(ra rdf.Row) bool {
		b.Each(func(rb rdf.Row) bool {
			if compatibleRows(ra, rb, shared) {
				out.Add(unionRows(ra, rb, buf))
			}
			return true
		})
		return true
	})
	return out
}

// leftOuter computes ⟦P1 OPT P2⟧ from the two operand results.
func (e *rowEvaluator) leftOuter(a, b *rdf.IDMappingSet, shared []int) *rdf.IDMappingSet {
	out := e.newSet()
	buf := e.layout.NewRow()
	a.Each(func(ra rdf.Row) bool {
		extended := false
		b.Each(func(rb rdf.Row) bool {
			if compatibleRows(ra, rb, shared) {
				out.Add(unionRows(ra, rb, buf))
				extended = true
			}
			return true
		})
		if !extended {
			out.Add(ra)
		}
		return true
	})
	return out
}

// EvalID computes ⟦P⟧G by the compositional semantics as a row set
// (the set carries the pattern's slot layout — the projected layout
// for SELECT queries).
func EvalID(p Pattern, g *rdf.Graph) *rdf.IDMappingSet {
	sel, isSel := p.(Select)
	if isSel {
		p = sel.Where
	}
	set := newRowEvaluator(p, g).eval(p)
	if isSel {
		set = projectIDSet(set, sel.Vars)
	}
	return set
}

// Eval computes ⟦P⟧G by the compositional semantics, decoding the row
// result at the boundary.
func Eval(p Pattern, g *rdf.Graph) *rdf.MappingSet {
	return EvalID(p, g).Decode(g.Dict())
}

// Contains reports whether µ ∈ ⟦P⟧G by the compositional semantics.
// This is the reference decision procedure for wdEVAL. The probe is
// encoded once; a mapping that mentions a variable outside vars(P) or
// a value outside dom(G) cannot be a solution.
func Contains(p Pattern, g *rdf.Graph, mu rdf.Mapping) bool {
	if _, isSel := p.(Select); isSel {
		// Projection loses the full-row structure; decide membership on
		// the projected result set.
		set := EvalID(p, g)
		row, ok := set.Layout().EncodeMapping(g.Dict(), mu)
		if !ok {
			return false
		}
		return set.ContainsRow(row)
	}
	e := newRowEvaluator(p, g)
	row, ok := e.layout.EncodeMapping(g.Dict(), mu)
	if !ok {
		return false
	}
	return e.eval(p).ContainsRow(row)
}

package sparql

import (
	"wdsparql/internal/rdf"
)

// This file implements a second, production-grade compositional
// evaluator: the same Pérez-et-al. semantics as Eval, but with
// hash-based join and left-outer-join operators instead of nested
// loops, running on the same flat-row representation. Rows are
// partitioned by their bound-slot mask over the operator's shared
// slots (vars(P1) ∩ vars(P2), computed once per operator); because
// SPARQL mappings are *partial*, two rows can be compatible without
// agreeing on a common domain, and the hash key must be the projection
// onto the slots both schemas actually bind — computed once per pair
// of masks, not per pair of rows. This turns the O(|L|·|R|) pairing
// into O(|L| + |R| + |output|) per mask pair for AND.

// EvalHashJoin computes ⟦P⟧G with hash-based operators. It always
// agrees with Eval (asserted by the test suite) and is the faster
// choice on large intermediate results.
func EvalHashJoin(p Pattern, g *rdf.Graph) *rdf.MappingSet {
	return EvalHashJoinID(p, g).Decode(g.Dict())
}

// EvalHashJoinID is EvalHashJoin without the boundary decode.
func EvalHashJoinID(p Pattern, g *rdf.Graph) *rdf.IDMappingSet {
	sel, isSel := p.(Select)
	if isSel {
		p = sel.Where
	}
	set := newRowEvaluator(p, g).evalHash(p)
	if isSel {
		set = projectIDSet(set, sel.Vars)
	}
	return set
}

func (e *rowEvaluator) evalHash(p Pattern) *rdf.IDMappingSet {
	switch q := p.(type) {
	case Triple:
		return e.evalTriple(q.T)
	case Binary:
		left := e.evalHash(q.Left)
		right := e.evalHash(q.Right)
		switch q.Op {
		case OpAnd:
			out := e.newSet()
			buf := e.layout.NewRow()
			e.hashJoin(left, right, e.sharedSlots(q.Left, q.Right), func(a, b rdf.Row) {
				out.Add(unionRows(a, b, buf))
			}, nil)
			return out
		case OpOpt:
			out := e.newSet()
			buf := e.layout.NewRow()
			matched := make([]bool, left.Len())
			e.hashJoin(left, right, e.sharedSlots(q.Left, q.Right), func(a, b rdf.Row) {
				out.Add(unionRows(a, b, buf))
			}, matched)
			i := 0
			left.Each(func(ra rdf.Row) bool {
				if !matched[i] {
					out.Add(ra)
				}
				i++
				return true
			})
			return out
		case OpUnion:
			out := e.newSet()
			out.AddAll(left)
			out.AddAll(right)
			return out
		}
	case Filter:
		return e.applyFilter(e.evalHash(q.Where), q.Cond)
	}
	panic("sparql: unknown pattern type in EvalHashJoin")
}

// maskGroup is the set of rows of one operand that bind exactly the
// same subset of the operator's shared slots.
type maskGroup struct {
	mask uint64
	idx  []int // row indices within the operand set
}

// groupByMask partitions the set's rows by which shared slots they
// bind. Shared-slot counts beyond 64 would overflow the mask; the
// caller falls back to the nested-loop operators in that (practically
// unreachable) regime.
func groupByMask(set *rdf.IDMappingSet, shared []int) []maskGroup {
	byMask := map[uint64]int{}
	var groups []maskGroup
	i := 0
	set.Each(func(r rdf.Row) bool {
		var m uint64
		for bit, s := range shared {
			if r[s] != rdf.Unbound {
				m |= 1 << uint(bit)
			}
		}
		gi, ok := byMask[m]
		if !ok {
			gi = len(groups)
			byMask[m] = gi
			groups = append(groups, maskGroup{mask: m})
		}
		groups[gi].idx = append(groups[gi].idx, i)
		i++
		return true
	})
	return groups
}

// hashJoin pairs compatible rows of the two sets, calling emit on
// every (left, right) pair. When matched is non-nil, matched[i] is set
// for every left row i that found at least one partner (used by the
// left-outer join). Pairing is per mask pair: the probe key is the
// packed projection onto the slots both masks bind.
func (e *rowEvaluator) hashJoin(left, right *rdf.IDMappingSet, shared []int, emit func(a, b rdf.Row), matched []bool) {
	if len(shared) > 64 {
		// Mask overflow: degrade to the nested-loop pairing.
		i := 0
		left.Each(func(ra rdf.Row) bool {
			right.Each(func(rb rdf.Row) bool {
				if compatibleRows(ra, rb, shared) {
					emit(ra, rb)
					if matched != nil {
						matched[i] = true
					}
				}
				return true
			})
			i++
			return true
		})
		return
	}
	lGroups := groupByMask(left, shared)
	rGroups := groupByMask(right, shared)
	keySlots := make([]int, 0, len(shared))
	var keyBuf []byte
	// packKey renders the projection onto keySlots into a reused
	// buffer; probe-side lookups convert it with the allocation-free
	// map-index idiom, so only build-side inserts allocate.
	packKey := func(r rdf.Row) []byte {
		b := keyBuf[:0]
		for _, s := range keySlots {
			b = rdf.AppendIDLE(b, r[s])
		}
		keyBuf = b
		return b
	}
	for _, lg := range lGroups {
		for _, rg := range rGroups {
			// Slots both schemas bind: the only slots compatibility can
			// fail on, computed once per mask pair.
			both := lg.mask & rg.mask
			keySlots = keySlots[:0]
			for bit, s := range shared {
				if both&(1<<uint(bit)) != 0 {
					keySlots = append(keySlots, s)
				}
			}
			// Build on the smaller side, probe with the larger.
			build, probe, buildIsLeft := rg, lg, false
			buildSet, probeSet := right, left
			if len(lg.idx) < len(rg.idx) {
				build, probe, buildIsLeft = lg, rg, true
				buildSet, probeSet = left, right
			}
			index := make(map[string][]int, len(build.idx))
			for _, bi := range build.idx {
				k := string(packKey(buildSet.Row(bi)))
				index[k] = append(index[k], bi)
			}
			for _, pi := range probe.idx {
				pr := probeSet.Row(pi)
				for _, bi := range index[string(packKey(pr))] {
					br := buildSet.Row(bi)
					// Key equality on the both-bound slots is exactly
					// compatibility for this mask pair.
					if buildIsLeft {
						emit(br, pr)
						if matched != nil {
							matched[bi] = true
						}
					} else {
						emit(pr, br)
						if matched != nil {
							matched[pi] = true
						}
					}
				}
			}
		}
	}
}

package rdf

// Selectivity catalog: distinct-key statistics the query planner
// (internal/plan) reads alongside MatchCountID. The CSR offset arrays
// of the sealed base already answer "how many triples carry key k at
// position X" in O(1); this file adds the complementary domain-size
// questions — how many distinct subjects/predicates/objects exist,
// globally and under a fixed predicate — that turn posting lengths
// into per-bound-variable selectivity estimates.
//
// Cost discipline: every answer is a lookup after a one-time pass, so
// a plan never scans data.
//
//   - Base: on first use, one pass over the offset arrays and the
//     predicate groups of the secondarily-sorted keyPS/keyPO columns —
//     whose secondary sort makes distinct values = key transitions —
//     fills every count, O(|G| + |dict|) once per sealed view. It runs
//     under sync.Once, so the first plan is safe under concurrent
//     readers and mmap-loaded snapshots stay O(1) until a plan asks.
//   - Overlay: the delta adds only keys and (predicate, value) pairs
//     absent from the sealed base (O(1)/O(log) base probes per overlay
//     key), keeping the counts exact. Both deltas are computed in one
//     pass over the overlay the first time a reader asks at a given
//     overlay state; the write path does nothing, and
//     the next Add makes the memo stale (see overlayCatalog).

import "sync"

// cardStats is the lazily-filled distinct-count cache embedded in the
// immutable frozen view.
type cardStats struct {
	once                sync.Once
	distS, distP, distO int
	// under maps a predicate to its distinct subject and object counts.
	under map[TermID][2]int
}

// DistinctCount reports the number of distinct IRIs occurring at
// position pos (0 = subject, 1 = predicate, 2 = object) across the
// graph, overlay included.
func (g *Graph) DistinctCount(pos int) int {
	base := g.frz.distinct(pos)
	if g.ovl != nil {
		base += g.overlayCatalog().newKeys[pos]
	}
	return base
}

// DistinctUnderPredicate reports the number of distinct terms at
// position pos (0 = subject, 2 = object) among the triples whose
// predicate is p, overlay included. Exact.
func (g *Graph) DistinctUnderPredicate(p TermID, pos int) int {
	base := g.frz.distinctUnder(p, pos)
	if g.ovl != nil {
		base += g.overlayCatalog().newUnder[p][underIdx(pos)]
	}
	return base
}

// underIdx maps a position to its index in a [subjects, objects] pair.
func underIdx(pos int) int {
	if pos == 2 {
		return 1
	}
	return 0
}

// fill computes every count of the view in one pass: non-empty groups
// of the three offset arrays, and per predicate the key transitions of
// its keyPS (subjects) and keyPO (objects) group.
func (f *frozenView) fill() {
	f.stats.once.Do(func() {
		f.stats.distS = nonzeroGroups(f.offS)
		f.stats.distP = nonzeroGroups(f.offP)
		f.stats.distO = nonzeroGroups(f.offO)
		f.stats.under = make(map[TermID][2]int, f.stats.distP)
		for k := 0; k < f.nIRIs; k++ {
			if b, e := f.offP[k], f.offP[k+1]; e > b {
				f.stats.under[TermID(k)] = [2]int{transitions(f.keyPS[b:e]), transitions(f.keyPO[b:e])}
			}
		}
	})
}

// distinct returns the global distinct-key count of one position.
func (f *frozenView) distinct(pos int) int {
	f.fill()
	switch pos {
	case 0:
		return f.stats.distS
	case 1:
		return f.stats.distP
	default:
		return f.stats.distO
	}
}

// distinctUnder returns the distinct subjects (pos 0) or objects (pos
// 2) of predicate p's group.
func (f *frozenView) distinctUnder(p TermID, pos int) int {
	f.fill()
	return f.stats.under[p][underIdx(pos)]
}

// transitions counts the distinct values of a sorted key run.
func transitions(keys []TermID) int {
	n := 0
	for i, v := range keys {
		if i == 0 || keys[i-1] != v {
			n++
		}
	}
	return n
}

// nonzeroGroups counts keys with a non-empty posting list in a CSR
// offset array.
func nonzeroGroups(off []uint32) int {
	n := 0
	for i := 1; i < len(off); i++ {
		if off[i] > off[i-1] {
			n++
		}
	}
	return n
}

// ovlCatalog is the overlay's contribution to the catalog at one
// overlay state: per position the keys the sealed base has never seen,
// and per predicate the distinct subjects and objects that do not
// co-occur with it in the base.
type ovlCatalog struct {
	n        int // len(overlay.ts) it was computed at
	newKeys  [3]int
	newUnder map[TermID][2]int
}

// overlayCatalog returns the overlay's catalog deltas, computing them
// on the first call at the current overlay state. The overlay is
// insert-only, so its length identifies the state: a memo whose length
// differs predates an Add and is recomputed, without the write
// path touching it. Concurrent readers of one state may each compute
// it; they store equal values.
func (g *Graph) overlayCatalog() *ovlCatalog {
	o := g.ovl
	if c := o.catalog.Load(); c != nil && c.n == len(o.ts) {
		return c
	}
	c := &ovlCatalog{n: len(o.ts), newUnder: make(map[TermID][2]int, len(o.byP))}
	for pos, m := range [3]map[TermID][]IDTriple{o.byS, o.byP, o.byO} {
		for k := range m { // only counts leave the loop: map order is irrelevant
			if g.baseGroupLen(pos, k) == 0 {
				c.newKeys[pos]++
			}
		}
	}
	seen := make(map[TermID]struct{})
	for p, ts := range o.byP {
		var d [2]int
		for i, pos := range [2]int{0, 2} {
			clear(seen)
			for _, t := range ts {
				v := t[pos]
				if _, ok := seen[v]; ok {
					continue
				}
				seen[v] = struct{}{}
				if !g.basePairHas(p, v, pos) {
					d[i]++
				}
			}
		}
		c.newUnder[p] = d
	}
	o.catalog.Store(c)
	return c
}

// baseGroupLen is the sealed-base posting-list length of one key, the
// O(1) probe the overlay delta counts lean on.
func (g *Graph) baseGroupLen(pos int, k TermID) int {
	switch pos {
	case 0:
		return int(g.frz.groupLen(g.frz.offS, k))
	case 1:
		return int(g.frz.groupLen(g.frz.offP, k))
	default:
		return int(g.frz.groupLen(g.frz.offO, k))
	}
}

// basePairHas reports whether the sealed base holds any triple with
// predicate p and value v at position pos (0 or 2).
func (g *Graph) basePairHas(p, v TermID, pos int) bool {
	f := g.frz
	if pos == 0 {
		lo, hi := f.range2Bounds(f.offS, f.keySP, v, p)
		return hi > lo
	}
	lo, hi := f.range2Bounds(f.offP, f.keyPO, p, v)
	return hi > lo
}

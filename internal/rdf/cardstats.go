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
//     subject and object groups of the secondarily-sorted keySP/keyOP
//     columns — whose secondary sort makes each distinct (subject,
//     predicate) or (object, predicate) pair one key transition,
//     tallied in dense per-TermID counters — fills every count,
//     O(|G| + |dict|) once per sealed view. It runs under sync.Once,
//     so the first plan is safe under concurrent readers and
//     mmap-loaded snapshots stay O(1) until a plan asks.
//   - Delta tier: its share adds only keys and (predicate, value)
//     pairs absent from the base (O(1)/O(log) base probes per delta
//     key or pair, read off the delta's own offsets and sorted key
//     columns), keeping the counts exact. It is computed once per
//     seal, under sync.Once on the first plan that asks, and shared
//     by every generation holding the tier.
//   - Overlay: the same share against both sealed tiers. It is
//     computed in one pass over the overlay the first time a reader
//     asks at a given overlay state; the write path does nothing, and
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
// graph, delta tier and overlay included.
func (g *Graph) DistinctCount(pos int) int {
	n := g.frz.distinct(pos)
	if d := g.dlt; d != nil {
		n += d.share().newKeys[pos]
	}
	if g.ovl != nil {
		n += g.overlayCatalog().newKeys[pos]
	}
	return n
}

// DistinctUnderPredicate reports the number of distinct terms at
// position pos (0 = subject, 2 = object) among the triples whose
// predicate is p, delta tier and overlay included. Exact.
func (g *Graph) DistinctUnderPredicate(p TermID, pos int) int {
	n := g.frz.distinctUnder(p, pos)
	if d := g.dlt; d != nil {
		n += d.share().newUnder[p][underIdx(pos)]
	}
	if g.ovl != nil {
		n += g.overlayCatalog().newUnder[p][underIdx(pos)]
	}
	return n
}

// underIdx maps a position to its index in a [subjects, objects] pair.
func underIdx(pos int) int {
	if pos == 2 {
		return 1
	}
	return 0
}

// fill computes every count of the view in one pass: non-empty groups
// of the three offset arrays, and the per-predicate pair counts of
// underCounts.
func (f *frozenView) fill() {
	f.stats.once.Do(func() {
		f.stats.distS = nonzeroGroups(f.offS)
		f.stats.distP = nonzeroGroups(f.offP)
		f.stats.distO = nonzeroGroups(f.offO)
		f.stats.under = f.underCounts(nil)
	})
}

// underCounts counts per predicate the distinct subjects and objects
// of the view's triples: inside every subject group of keySP and every
// object group of keyOP each key transition is one (value, predicate)
// pair. With below non-nil, a pair counts only if below lacks it. The
// counters are dense per TermID, so a pair costs an array increment;
// the result holds one entry per predicate of the view.
func (f *frozenView) underCounts(below *frozenView) map[TermID][2]int {
	cnt := make([][2]int32, f.nIRIs)
	for i, col := range [2]struct {
		off  []uint32
		keys []TermID
	}{{f.offS, f.keySP}, {f.offO, f.keyOP}} {
		pos := 2 * i // subjects, then objects
		for v := 0; v < f.nIRIs; v++ {
			grp := col.keys[col.off[v]:col.off[v+1]]
			for j, p := range grp {
				if (j == 0 || grp[j-1] != p) && (below == nil || !tierPairHas(below, p, TermID(v), pos)) {
					cnt[p][i]++
				}
			}
		}
	}
	under := make(map[TermID][2]int, nonzeroGroups(f.offP))
	for p := 0; p < f.nIRIs; p++ {
		if f.offP[p+1] > f.offP[p] {
			under[TermID(p)] = [2]int{int(cnt[p][0]), int(cnt[p][1])}
		}
	}
	return under
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

// catalogShare is one tier's contribution to the catalog: per
// position the keys no tier below it has, and per predicate the
// distinct subjects and objects that do not co-occur with it below.
type catalogShare struct {
	newKeys  [3]int
	newUnder map[TermID][2]int
}

// deltaCatalog is a delta tier's share against its base, filled once.
type deltaCatalog struct {
	once sync.Once
	catalogShare
}

// share returns the delta tier's catalog share, computing it on first
// use: the non-empty groups of the tier's offsets that are empty in
// the base, and per predicate the tier's pairs the base lacks (see
// underCounts) — the base is probed, never filled.
func (d *deltaTier) share() *catalogShare {
	d.cat.once.Do(func() {
		c := &d.cat.catalogShare
		for k := 0; k < d.nIRIs; k++ {
			for pos, off := range [3][]uint32{d.offS, d.offP, d.offO} {
				if off[k+1] > off[k] && tierGroupLen(d.base, pos, TermID(k)) == 0 {
					c.newKeys[pos]++
				}
			}
		}
		c.newUnder = d.underCounts(d.base)
	})
	return &d.cat.catalogShare
}

// ovlCatalog is the overlay's share of the catalog (against both
// sealed tiers) at one overlay state.
type ovlCatalog struct {
	n int // len(overlay.ts) it was computed at
	catalogShare
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
	c := &ovlCatalog{n: len(o.ts), catalogShare: catalogShare{newUnder: make(map[TermID][2]int, len(o.byP))}}
	for pos, m := range [3]map[TermID][]IDTriple{o.byS, o.byP, o.byO} {
		for k := range m { // only counts leave the loop: map order is irrelevant
			if g.sealedGroupLen(pos, k) == 0 {
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
				if !g.sealedPairHas(p, v, pos) {
					d[i]++
				}
			}
		}
		c.newUnder[p] = d
	}
	o.catalog.Store(c)
	return c
}

// sealedGroupLen is the posting-list length of one key over both
// sealed tiers, the O(1) probe the overlay share leans on.
func (g *Graph) sealedGroupLen(pos int, k TermID) int {
	n := tierGroupLen(g.frz, pos, k)
	if d := g.dlt; d != nil {
		n += tierGroupLen(d.frozenView, pos, k)
	}
	return n
}

// sealedPairHas reports whether a sealed tier holds any triple with
// predicate p and value v at position pos (0 or 2).
func (g *Graph) sealedPairHas(p, v TermID, pos int) bool {
	return tierPairHas(g.frz, p, v, pos) || (g.dlt != nil && tierPairHas(g.dlt.frozenView, p, v, pos))
}

// tierGroupLen is one tier's posting-list length of a key at a
// position; IDs past the tier's dictionary bound have empty groups.
func tierGroupLen(f *frozenView, pos int, k TermID) int {
	if int(k) >= f.nIRIs {
		return 0
	}
	off := [3][]uint32{f.offS, f.offP, f.offO}[pos]
	return int(off[k+1] - off[k])
}

// tierPairHas reports whether the tier holds any triple with predicate
// p and value v at position pos (0 or 2): a range search inside v's
// subject or object group.
func tierPairHas(f *frozenView, p, v TermID, pos int) bool {
	off, keys := f.offS, f.keySP
	if pos == 2 {
		off, keys = f.offO, f.keyOP
	}
	lo, hi := f.range2Bounds(off, keys, v, p)
	return hi > lo
}

package rdf

// Selectivity catalog: distinct-key statistics the query planner
// (internal/plan) reads alongside MatchCountID. The CSR offset arrays
// of the sealed backends already answer "how many triples carry key k
// at position X" in O(1); this file adds the complementary domain-size
// questions — how many distinct subjects/predicates/objects exist,
// globally and under a fixed predicate — that turn posting lengths
// into per-bound-variable selectivity estimates.
//
// Cost discipline: every sealed answer is a lookup after a one-time
// pass, so a plan never scans data.
//
//   - Map backend: global counts are the index map sizes (O(1));
//     per-predicate counts scan one posting list. The map backend is
//     mutable, so nothing is cached.
//   - Frozen / sharded: on first use, one pass over the offset (or
//     global count) arrays and the predicate groups of the
//     secondarily-sorted keyPS/keyPO columns — whose secondary sort
//     makes distinct values = key transitions — fills every count,
//     O(|G| + |dict|) once per sealed view. It runs under sync.Once, so
//     the first plan is safe under concurrent readers and mmap-loaded
//     snapshots stay O(1) until a plan asks.
//   - Sharded: each shard's view fills its own counts. Subjects
//     partition across shards (shardOfID hashes the subject), so
//     per-shard distinct-subject sums are exact. Distinct objects under
//     a predicate are per-shard sums and therefore an upper bound —
//     acceptable for an estimator, documented here so nobody mistakes
//     it for an invariant.
//   - Overlay: the delta adds only keys and (predicate, value) pairs
//     absent from the sealed base (O(1)/O(log) base probes per overlay
//     key), keeping the counts exact on frozen bases. Both deltas are
//     computed in one pass over the overlay the first time a reader
//     asks at a given overlay state; the write path does nothing, and
//     the next AddDelta makes the memo stale (see overlayCatalog).

import "sync"

// cardStats is the lazily-filled distinct-count cache embedded in the
// immutable sealed views.
type cardStats struct {
	once                sync.Once
	distS, distP, distO int
	// under maps a predicate to its distinct subject and object counts
	// (frozen views only; a sharded graph sums its shards' maps).
	under map[TermID][2]int
}

// DistinctCount reports the number of distinct IRIs occurring at
// position pos (0 = subject, 1 = predicate, 2 = object) across the
// graph, overlay included.
func (g *Graph) DistinctCount(pos int) int {
	var base int
	switch {
	case g.shd != nil:
		base = g.shd.distinct(pos)
	case g.frz != nil:
		base = g.frz.distinct(pos)
	default:
		switch pos {
		case 0:
			return len(g.byS)
		case 1:
			return len(g.byP)
		default:
			return len(g.byO)
		}
	}
	if g.ovl != nil {
		base += g.overlayCatalog().newKeys[pos]
	}
	return base
}

// DistinctUnderPredicate reports the number of distinct terms at
// position pos (0 = subject, 2 = object) among the triples whose
// predicate is p. Exact on map, frozen and overlay backends; on a
// sharded base the object count is a per-shard sum and may double
// count objects recurring across shards (subject counts stay exact —
// subjects partition by shard). Callers treat it as an estimate.
func (g *Graph) DistinctUnderPredicate(p TermID, pos int) int {
	var base int
	switch {
	case g.shd != nil:
		for i := range g.shd.shards {
			base += g.shd.shards[i].view.distinctUnder(p, pos)
		}
	case g.frz != nil:
		base = g.frz.distinctUnder(p, pos)
	default:
		seen := make(map[TermID]struct{})
		for _, t := range g.byP[p] {
			seen[t[pos]] = struct{}{}
		}
		return len(seen)
	}
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

func (sg *ShardedGraph) distinct(pos int) int {
	sg.stats.once.Do(func() {
		for i := range sg.shards {
			// Subjects partition across shards, so the sum is exact.
			sg.stats.distS += sg.shards[i].view.distinct(0)
		}
		sg.stats.distP = nonzeroGroups(sg.cntP)
		sg.stats.distO = nonzeroGroups(sg.cntO)
	})
	switch pos {
	case 0:
		return sg.stats.distS
	case 1:
		return sg.stats.distP
	default:
		return sg.stats.distO
	}
}

// groupLen is the sealed-base posting-list length of one key, the
// O(1) probe the overlay delta counts lean on.
func (sg *ShardedGraph) groupLen(pos int, k TermID) int {
	if k.IsVar() || int(k) >= sg.nIRIs {
		return 0
	}
	switch pos {
	case 0:
		v := sg.shards[shardOfID(k, sg.n)].view
		return int(v.groupLen(v.offS, k))
	case 1:
		return int(sg.cntP[k+1] - sg.cntP[k])
	default:
		return int(sg.cntO[k+1] - sg.cntO[k])
	}
}

// nonzeroGroups counts keys with a non-empty posting list in a CSR
// offset (or global count-offset) array.
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
// differs predates an AddDelta and is recomputed, without the write
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

func (g *Graph) baseGroupLen(pos int, k TermID) int {
	if g.shd != nil {
		return g.shd.groupLen(pos, k)
	}
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
	if g.shd != nil {
		if pos == 0 {
			sh := g.shd.shards[shardOfID(v, g.shd.n)].view
			lo, hi := sh.range2Bounds(sh.offS, sh.keySP, v, p)
			return hi > lo
		}
		for i := range g.shd.shards {
			sh := g.shd.shards[i].view
			if lo, hi := sh.range2Bounds(sh.offP, sh.keyPO, p, v); hi > lo {
				return true
			}
		}
		return false
	}
	f := g.frz
	if pos == 0 {
		lo, hi := f.range2Bounds(f.offS, f.keySP, v, p)
		return hi > lo
	}
	lo, hi := f.range2Bounds(f.offP, f.keyPO, p, v)
	return hi > lo
}

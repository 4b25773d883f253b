package rdf

// The write overlay: a small map-backed write layer stacked on the
// sealed base of every Graph, so Add costs O(1) whatever the size of
// the base, and a serving engine can accept live writes without
// touching the CSR arenas underneath its readers.
//
// The design exploits the engine-wide ordering invariant directly.
// Every read path returns triples in global insertion (sequence)
// order, and every overlay triple is inserted after every base triple,
// so overlay sequence numbers form a strict suffix of the global
// sequence: for any posting list, walking the base list (already
// seq-ordered: a frozen arena range) and then the overlay's insertion-ordered
// list IS the k-way merge by sequence number. No merge machinery runs
// on reads and nothing is copied: Graph.LookupSegmentsID hands the
// lists out as segments, the solvers walk them in place one after the
// other, and counts add the lengths. Only the concatenating
// compatibility reads (CandidatesID, LookupRangeID, TriplesID) build a
// joined slice. The same argument covers the sealed delta tier between
// base and overlay: it holds exactly the triples sealed after the
// base's, in their order (see Freeze).
//
// Derived state follows the same sealed-plus-delta shape: the sealed
// occurrence table (g.occ) is never touched — overlay occurrence
// counts live in occDelta and dom(G) growth in domDelta — so sealed
// tiers shared between forked generations and clones (see Graph.Fork)
// stay immutable while each graph's overlay grows independently.
// Freeze seals the overlay into the delta tier.

import "sync/atomic"

// overlay is the write layer: six positional posting lists, each
// insertion-ordered, which is all the concat-as-merge argument above
// needs.
type overlay struct {
	set map[IDTriple]int32 // membership: the triple's index in ts
	ts  []IDTriple         // overlay insertion order (global seq = len(base.all) + index)

	byS  map[TermID][]IDTriple
	byP  map[TermID][]IDTriple
	byO  map[TermID][]IDTriple
	bySP map[[2]TermID][]IDTriple
	byPO map[[2]TermID][]IDTriple
	bySO map[[2]TermID][]IDTriple

	occDelta map[TermID]int32 // occurrence counts on top of base occ
	domDelta int              // IRIs in dom(G) that the base does not have

	catalog atomic.Pointer[ovlCatalog] // read-side memo; see Graph.overlayCatalog
}

func newOverlay() *overlay {
	return &overlay{
		set:      map[IDTriple]int32{},
		byS:      map[TermID][]IDTriple{},
		byP:      map[TermID][]IDTriple{},
		byO:      map[TermID][]IDTriple{},
		bySP:     map[[2]TermID][]IDTriple{},
		byPO:     map[[2]TermID][]IDTriple{},
		bySO:     map[[2]TermID][]IDTriple{},
		occDelta: map[TermID]int32{},
	}
}

// fork returns an independent copy of the overlay with every map and
// the insertion-order slice sized from the receiver's lengths, so the
// copy rehashes nothing while it is rebuilt. Posting lists are rebuilt,
// never shared: a write to either copy stays invisible to the other.
func (o *overlay) fork() *overlay {
	out := &overlay{
		set:      make(map[IDTriple]int32, len(o.set)),
		ts:       make([]IDTriple, 0, len(o.ts)),
		byS:      make(map[TermID][]IDTriple, len(o.byS)),
		byP:      make(map[TermID][]IDTriple, len(o.byP)),
		byO:      make(map[TermID][]IDTriple, len(o.byO)),
		bySP:     make(map[[2]TermID][]IDTriple, len(o.bySP)),
		byPO:     make(map[[2]TermID][]IDTriple, len(o.byPO)),
		bySO:     make(map[[2]TermID][]IDTriple, len(o.bySO)),
		occDelta: make(map[TermID]int32, len(o.occDelta)),
		domDelta: o.domDelta,
	}
	for _, t := range o.ts {
		out.insert(t)
	}
	for id, d := range o.occDelta {
		out.occDelta[id] = d
	}
	return out
}

// insert appends a triple the overlay does not hold yet to the
// membership set, the insertion order and the six posting lists.
func (o *overlay) insert(t IDTriple) {
	o.set[t] = int32(len(o.ts))
	o.ts = append(o.ts, t)
	o.byS[t[0]] = append(o.byS[t[0]], t)
	o.byP[t[1]] = append(o.byP[t[1]], t)
	o.byO[t[2]] = append(o.byO[t[2]], t)
	o.bySP[[2]TermID{t[0], t[1]}] = append(o.bySP[[2]TermID{t[0], t[1]}], t)
	o.byPO[[2]TermID{t[1], t[2]}] = append(o.byPO[[2]TermID{t[1], t[2]}], t)
	o.bySO[[2]TermID{t[0], t[2]}] = append(o.bySO[[2]TermID{t[0], t[2]}], t)
}

// candidates returns the overlay's posting list for the pattern, in
// overlay insertion order, as internal storage: a fully-bound hit is
// the one-element range of ts holding the triple (capacity-clamped, so
// callers cannot append into its neighbours).
func (o *overlay) candidates(p IDTriple) []IDTriple {
	sB, pB, oB := !p[0].IsVar(), !p[1].IsVar(), !p[2].IsVar()
	switch {
	case sB && pB && oB:
		if i, ok := o.set[p]; ok {
			return o.ts[i : i+1 : i+1]
		}
		return nil
	case sB && pB:
		return o.bySP[[2]TermID{p[0], p[1]}]
	case pB && oB:
		return o.byPO[[2]TermID{p[1], p[2]}]
	case sB && oB:
		return o.bySO[[2]TermID{p[0], p[2]}]
	case sB:
		return o.byS[p[0]]
	case pB:
		return o.byP[p[1]]
	case oB:
		return o.byO[p[2]]
	default:
		return o.ts
	}
}

// sealedOcc is the occurrence count of an IRI ID in the sealed tiers;
// IDs interned after the last seal (they live past the end of g.occ)
// have count zero by construction.
func (g *Graph) sealedOcc(id TermID) int32 {
	if int(id) < len(g.occ) {
		return g.occ[id]
	}
	return 0
}

// HasOverlay reports whether the graph carries a non-empty overlay.
func (g *Graph) HasOverlay() bool { return g.ovl != nil && len(g.ovl.ts) > 0 }

// OverlayLen returns the number of triples in the overlay write layer.
func (g *Graph) OverlayLen() int {
	if g.ovl == nil {
		return 0
	}
	return len(g.ovl.ts)
}

// DeltaLen returns the number of triples in the sealed delta tier:
// those sealed by Freeze since the base was last rebuilt.
func (g *Graph) DeltaLen() int {
	if g.dlt == nil {
		return 0
	}
	return len(g.dlt.all)
}

// Fork returns a new generation of the graph: it shares the
// receiver's immutable sealed tiers (CSR views, insertion-order slices,
// occurrence table) and dictionary contents, deep-copies the overlay,
// and is independently mutable through Add / Freeze. The cost is
// O(overlay + IRIs interned since the last Freeze), not O(graph) —
// this is what makes swap-a-whole-generation the cheap path for live
// ingest. The overlay copy is presized from the receiver's and skips
// the write path's dedup probes: the receiver's overlay is already
// deduplicated against the same sealed tiers.
//
// From the fork on, the receiver must be treated as read-only (its
// dictionary is forked-from; see Dict.Fork): serve existing readers
// from it, route all writes to the fork.
func (g *Graph) Fork() *Graph { return g.withDict(g.dict.Fork()) }

// Refrozen returns a new generation holding g's triples with the
// overlay sealed: g.Fork().Freeze() without copying the overlay that
// the Freeze would discard. Freeze only reads the overlay, so the
// receiver, read-only from here on as after Fork, keeps it intact.
func (g *Graph) Refrozen() *Graph {
	out := &Graph{dict: g.dict.Fork(), occ: g.occ, domSize: g.domSize, frz: g.frz, dlt: g.dlt, ovl: g.ovl}
	return out.Freeze()
}

// withDict returns a graph over d sharing g's sealed tiers and carrying
// a copy of g's overlay.
func (g *Graph) withDict(d *Dict) *Graph {
	out := &Graph{dict: d, occ: g.occ, domSize: g.domSize, frz: g.frz, dlt: g.dlt}
	if o := g.ovl; o != nil {
		out.ovl = o.fork()
	}
	return out
}

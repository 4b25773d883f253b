package rdf

// Mutable delta overlay: a small map-backed write layer stacked on a
// sealed (frozen) base graph, so a serving engine can
// accept live writes without thawing the CSR arenas underneath its
// readers.
//
// The design exploits the engine-wide ordering invariant directly.
// Every read path returns triples in global insertion (sequence)
// order, and every overlay triple is inserted after every base triple,
// so overlay sequence numbers form a strict suffix of the global
// sequence: for any posting list, walking the base list (already
// seq-ordered: a frozen arena range) and then the overlay's insertion-ordered
// list IS the k-way merge by sequence number. No merge machinery runs
// on reads and nothing is copied: Graph.LookupSegmentsID hands both
// lists out as two segments, the solvers walk them in place one after
// the other, and counts add the two lengths. Only the concatenating
// compatibility reads (CandidatesID, LookupRangeID, TriplesID) build a
// joined slice.
//
// Derived state follows the same base-plus-delta shape: the base
// occurrence table (g.occ) is never touched — overlay occurrence
// counts live in occDelta and dom(G) growth in domDelta — so a base
// shared between forked generations (see Graph.Fork) stays immutable
// while each generation's overlay grows independently.
//
// Structural invariant: g.ovl != nil implies the graph is sealed
// (g.frz != nil). The overlay lives and dies with the sealed view:
// thaw folds it into the map backend, Freeze / Compact fold it into a
// new sealed base.

import "sync/atomic"

// overlay is the write layer. Posting lists mirror the map backend's
// six positional indexes and are insertion-ordered, which is all the
// concat-as-merge argument above needs.
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

// AddDelta inserts a ground triple without disturbing a sealed base:
// on a frozen graph the triple goes into the overlay write
// layer and the CSR views stay untouched (in-flight readers of the
// base are never invalidated); on an unsealed graph it is a plain Add.
// Adding a triple that contains a variable panics, like Add.
func (g *Graph) AddDelta(t Triple) {
	if !t.Ground() {
		panic("rdf: cannot add non-ground triple " + t.String() + " to a graph")
	}
	g.addDeltaID(IDTriple{
		g.dict.InternIRI(t.S.Value),
		g.dict.InternIRI(t.P.Value),
		g.dict.InternIRI(t.O.Value),
	})
}

// AddDeltaTriple is a convenience for AddDelta(T(IRI(s), IRI(p), IRI(o))).
func (g *Graph) AddDeltaTriple(s, p, o string) {
	g.addDeltaID(IDTriple{g.dict.InternIRI(s), g.dict.InternIRI(p), g.dict.InternIRI(o)})
}

// AddDeltaID is AddDelta for an encoded triple whose IDs were interned
// in g.Dict(). It panics on variable IDs or IDs unknown to the
// dictionary, like AddID.
func (g *Graph) AddDeltaID(t IDTriple) {
	for _, id := range t {
		if id.IsVar() || int(id) >= g.dict.NumIRIs() {
			panic("rdf: AddDeltaID: ID not interned as an IRI in this graph's dictionary")
		}
	}
	g.addDeltaID(t)
}

func (g *Graph) addDeltaID(t IDTriple) {
	if g.frz == nil {
		g.addID(t)
		return
	}
	if g.baseContains(t) {
		return
	}
	o := g.ovl
	if o == nil {
		o = newOverlay()
		g.ovl = o
	}
	if _, dup := o.set[t]; dup {
		return
	}
	o.insert(t)
	for _, id := range t {
		if g.baseOcc(id)+o.occDelta[id] == 0 {
			o.domDelta++
		}
		o.occDelta[id]++
	}
}

// baseContains is membership against the sealed base only, ignoring
// the overlay; the write path uses it to dedup against the base.
func (g *Graph) baseContains(t IDTriple) bool {
	_, ok := g.frz.contains(t)
	return ok
}

// baseOcc is the base occurrence count for an IRI ID; IDs interned
// after the base was sealed (they live past the end of g.occ) have
// base count zero by construction.
func (g *Graph) baseOcc(id TermID) int32 {
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

// Fork returns a new generation of a sealed graph: it shares the
// receiver's immutable base storage (CSR views, insertion-order slice,
// occurrence table) and dictionary contents, deep-copies the overlay,
// and is independently mutable through AddDelta / Compact. The cost is
// O(overlay + dictionary extension), not O(graph) — this is what makes
// swap-a-whole-generation the cheap path for live ingest. The overlay
// copy is presized from the receiver's and skips the write path's
// dedup probes: the receiver's overlay is already deduplicated against
// the same base.
//
// From the fork on, the receiver must be treated as read-only (its
// dictionary is forked-from; see Dict.Fork): serve existing readers
// from it, route all writes to the fork. Fork panics on an unsealed
// graph — the map backend is already mutable in place.
func (g *Graph) Fork() *Graph {
	if g.frz == nil {
		panic("rdf: Fork: graph must be sealed (frozen)")
	}
	out := &Graph{
		dict:    g.dict.Fork(),
		all:     g.all,
		occ:     g.occ,
		domSize: g.domSize,
		frz:     g.frz,
	}
	if o := g.ovl; o != nil {
		out.ovl = o.fork()
	}
	return out
}

// foldOverlay folds the overlay into the insertion-order slice and the
// occurrence table and clears it. Both are written as fresh slices —
// never in place — because the base versions may be shared with forked
// sibling generations. The sealed views are stale afterwards; callers
// re-seal (Compact, Freeze) or rebuild the map backend (thaw).
func (g *Graph) foldOverlay() {
	o := g.ovl
	all := make([]IDTriple, 0, len(g.all)+len(o.ts))
	all = append(all, g.all...)
	all = append(all, o.ts...)
	occ := make([]int32, g.dict.NumIRIs())
	copy(occ, g.occ)
	for id, d := range o.occDelta {
		occ[id] += d
	}
	g.all, g.occ = all, occ
	g.domSize += o.domDelta
	g.ovl = nil
}

// Compact folds the overlay into a new frozen base. The re-freeze
// path of the ingest pipeline is exactly Fork + Compact: the old
// generation keeps serving its readers untouched while the fork
// compacts, then the generation pointer swaps. Compact on a graph
// without an overlay is a no-op.
func (g *Graph) Compact() *Graph {
	if g.ovl != nil {
		g.Freeze()
	}
	return g
}

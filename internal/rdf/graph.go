package rdf

import (
	"sort"
)

// Graph is a ground RDF graph: a finite set of RDF triples over IRIs
// (the paper assumes no blank nodes). Internally the graph is
// dictionary-encoded: every IRI is interned to a dense TermID in a
// private Dict and triples are stored as IDTriples, in one layout
// shared by every graph:
//
//   - A sealed base (see frozen.go), possibly empty: flat triple
//     arenas with offset arrays indexed by dense TermID, so
//     posting-list probes are array accesses or galloping range
//     searches and membership runs on an open-addressing table. The
//     base is immutable; forked generations and clones share it (for
//     a served image, it is the mapped snapshot itself).
//   - A sealed delta tier, often absent: the same immutable CSR layout
//     over the triples sealed since the base was built, and only over
//     those (see Freeze for when it is folded into a fresh base).
//   - The write overlay (see overlay.go): Add deduplicates against the
//     sealed tiers and inserts into small insertion-ordered posting
//     lists in O(1). Freeze seals the overlay into the delta tier.
//
// Every read returns base results, then delta results, then overlay
// results, which is global insertion order, so a graph reads the same
// — content and order — however its triples are split between the
// three tiers. The string-based API (Add, Match, Contains,
// MatchMappings, ...) is a thin shim over the ID-native core; hot
// callers (the homomorphism solver, the pebble closure) use the *ID
// methods directly.
//
// Reads never intern, so a Graph is safe for concurrent readers once
// its writes (including any Freeze call) are done.
//
// The zero value is not usable; call NewGraph.
type Graph struct {
	dict    *Dict
	occ     []int32     // sealed (base + delta) occurrence count per IRI ID
	domSize int         // sealed |dom(G)| = number of IRI IDs with occ > 0
	frz     *frozenView // the sealed base; never nil
	dlt     *deltaTier  // the sealed delta tier; nil when there is none
	ovl     *overlay    // write layer on the sealed tiers; nil until the first Add
}

// emptyBase is the sealed base of a graph that has never been frozen
// with triples in it. It is immutable, so every such graph shares it.
var emptyBase = freezeTriples(nil, nil, 0)

// NewGraph returns an empty RDF graph: an empty sealed base and no
// overlay.
func NewGraph() *Graph {
	return &Graph{dict: NewDict(), frz: emptyBase}
}

// GraphOf builds a graph from a list of ground triples. It panics if
// any triple contains a variable; data construction errors are
// programming errors in this module.
func GraphOf(ts ...Triple) *Graph {
	g := NewGraph()
	for _, t := range ts {
		g.Add(t)
	}
	return g
}

// Dict returns the graph's term dictionary. Its IRI table covers
// exactly dom(G) plus any IRIs the caller interns explicitly; interned
// IRIs only join dom(G) when a triple containing them is added.
func (g *Graph) Dict() *Dict { return g.dict }

// Add inserts a ground triple into the graph. Adding a triple that
// contains a variable panics: RDF graphs are ground by definition
// (Section 2 of the paper).
func (g *Graph) Add(t Triple) {
	if !t.Ground() {
		panic("rdf: cannot add non-ground triple " + t.String() + " to a graph")
	}
	g.addID(IDTriple{
		g.dict.InternIRI(t.S.Value),
		g.dict.InternIRI(t.P.Value),
		g.dict.InternIRI(t.O.Value),
	})
}

// AddTriple is a convenience for Add(T(IRI(s), IRI(p), IRI(o))).
func (g *Graph) AddTriple(s, p, o string) {
	g.addID(IDTriple{g.dict.InternIRI(s), g.dict.InternIRI(p), g.dict.InternIRI(o)})
}

// AddID inserts an encoded ground triple whose IDs were interned in
// g.Dict(). It panics on variable IDs or IDs unknown to the
// dictionary.
func (g *Graph) AddID(t IDTriple) {
	for _, id := range t {
		if id.IsVar() || int(id) >= g.dict.NumIRIs() {
			panic("rdf: AddID: ID not interned as an IRI in this graph's dictionary")
		}
	}
	g.addID(t)
}

// addID inserts the triple into the overlay unless a sealed tier or
// the overlay already holds it: O(1), whatever the size of the sealed
// tiers, which are never touched.
func (g *Graph) addID(t IDTriple) {
	if g.ContainsID(t) {
		return
	}
	o := g.ovl
	if o == nil {
		o = newOverlay()
		g.ovl = o
	}
	o.insert(t)
	for _, id := range t {
		if g.sealedOcc(id)+o.occDelta[id] == 0 {
			o.domDelta++
		}
		o.occDelta[id]++
	}
}

// encodeGround encodes a ground triple without interning; ok is false
// when some IRI does not occur in the dictionary (and hence the triple
// cannot be in G).
func (g *Graph) encodeGround(t Triple) (IDTriple, bool) {
	s, ok := g.dict.LookupIRI(t.S.Value)
	if !ok {
		return IDTriple{}, false
	}
	p, ok := g.dict.LookupIRI(t.P.Value)
	if !ok {
		return IDTriple{}, false
	}
	o, ok := g.dict.LookupIRI(t.O.Value)
	if !ok {
		return IDTriple{}, false
	}
	return IDTriple{s, p, o}, true
}

// EncodePattern encodes a triple pattern without interning: IRI
// positions are resolved through the dictionary and variable positions
// receive positional variable IDs (VarID(0), VarID(1), ... by first
// occurrence; repeated variables share an ID). ok is false when some
// IRI constant does not occur in G's dictionary, in which case the
// pattern matches nothing.
func (g *Graph) EncodePattern(t Triple) (IDTriple, bool) {
	var out IDTriple
	var names [3]string
	n := 0
	for i, term := range t.Terms() {
		if term.IsVar() {
			slot := -1
			for j := 0; j < n; j++ {
				if names[j] == term.Value {
					slot = j
					break
				}
			}
			if slot < 0 {
				names[n] = term.Value
				slot = n
				n++
			}
			out[i] = VarID(slot)
			continue
		}
		id, ok := g.dict.LookupIRI(term.Value)
		if !ok {
			return IDTriple{}, false
		}
		out[i] = id
	}
	return out, true
}

// Contains reports whether the ground triple t is in G.
func (g *Graph) Contains(t Triple) bool {
	if !t.Ground() {
		return false
	}
	id, ok := g.encodeGround(t)
	if !ok {
		return false
	}
	return g.ContainsID(id)
}

// ContainsID reports whether the encoded ground triple is in G.
func (g *Graph) ContainsID(t IDTriple) bool {
	if o := g.ovl; o != nil {
		if _, ok := o.set[t]; ok {
			return true
		}
	}
	if _, ok := g.frz.contains(t); ok {
		return true
	}
	if d := g.dlt; d != nil {
		_, ok := d.contains(t)
		return ok
	}
	return false
}

// Len returns |G|, the number of triples.
func (g *Graph) Len() int { return len(g.frz.all) + g.DeltaLen() + g.OverlayLen() }

// Dom returns dom(G), the sorted set of IRIs appearing in G.
func (g *Graph) Dom() []string {
	out := make([]string, 0, g.DomSize())
	for id, c := range g.occ {
		if c > 0 {
			out = append(out, g.dict.StringOf(TermID(id)))
		}
	}
	if o := g.ovl; o != nil {
		for id := range o.occDelta {
			if g.sealedOcc(id) == 0 {
				out = append(out, g.dict.StringOf(id))
			}
		}
	}
	sort.Strings(out)
	return out
}

// DomIDs returns the IDs of dom(G), sorted ascending.
func (g *Graph) DomIDs() []TermID {
	out := make([]TermID, 0, g.DomSize())
	for id, c := range g.occ {
		if c > 0 {
			out = append(out, TermID(id))
		}
	}
	if o := g.ovl; o != nil {
		n := len(out)
		for id := range o.occDelta {
			if g.sealedOcc(id) == 0 {
				out = append(out, id)
			}
		}
		if len(out) > n {
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		}
	}
	return out
}

// DomSize returns |dom(G)| without materialising the sorted slice.
func (g *Graph) DomSize() int {
	if o := g.ovl; o != nil {
		return g.domSize + o.domDelta
	}
	return g.domSize
}

// HasIRI reports whether the IRI value occurs anywhere in G.
func (g *Graph) HasIRI(v string) bool {
	id, ok := g.dict.LookupIRI(v)
	if !ok {
		return false
	}
	if int(id) < len(g.occ) && g.occ[id] > 0 {
		return true
	}
	if o := g.ovl; o != nil {
		return o.occDelta[id] > 0
	}
	return false
}

// Triples returns all triples in a deterministic order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Len())
	for _, seg := range g.tiers() {
		for _, t := range seg {
			out = append(out, g.dict.DecodeTriple(t))
		}
	}
	SortTriples(out)
	return out
}

// TriplesID returns all encoded triples in insertion order. When one
// tier holds every triple the slice is the graph's internal storage
// and callers must not modify it; otherwise it is freshly materialised
// (base, then delta, then overlay — that suffix concatenation is
// insertion order, see overlay.go).
func (g *Graph) TriplesID() []IDTriple { return g.tiers().join() }

// tiers returns every triple of the graph as three segments, one per
// tier, in sequence order.
func (g *Graph) tiers() segments { return g.segments(IDTriple{VarID(0), VarID(1), VarID(2)}) }

// Match returns all triples of G matching the pattern p under the
// partial assignment already fixed inside p itself: a position holding
// an IRI must match exactly, a position holding a variable matches
// anything (repeated variables are checked for equality). The result
// order is unspecified.
func (g *Graph) Match(p Triple) []Triple {
	ip, ok := g.EncodePattern(p)
	if !ok {
		return nil
	}
	cands, exact := g.LookupRangeID(ip)
	out := make([]Triple, 0, len(cands))
	for _, t := range cands {
		if exact || MatchesPatternID(ip, t) {
			out = append(out, g.dict.DecodeTriple(t))
		}
	}
	return out
}

// MatchID is Match over encoded patterns (see EncodePattern for the
// pattern convention). When one tier holds every match, the result of
// a pattern without repeated variables aliases that tier's immutable
// storage: callers must not modify it. Otherwise the result is built
// once, straight from the tiers' segments.
func (g *Graph) MatchID(p IDTriple) []IDTriple {
	segs := g.segments(p)
	if ExactPattern(p) {
		return segs.join()
	}
	out := make([]IDTriple, 0, segs.len())
	for _, seg := range segs {
		for _, t := range seg {
			if MatchesPatternID(p, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// MatchCount returns the number of triples matching the pattern.
func (g *Graph) MatchCount(p Triple) int {
	ip, ok := g.EncodePattern(p)
	if !ok {
		return 0
	}
	return g.MatchCountID(ip)
}

// MatchCountID returns the number of triples matching the encoded
// pattern. When the pattern has no repeated variables the count is the
// sum of the tiers' posting-list lengths, with no scan and no list
// built: O(1) for at most one bound position, O(log) for two. A
// fully-bound pattern is a membership probe; a pattern with a repeated
// variable scans the segments in place.
func (g *Graph) MatchCountID(p IDTriple) int {
	if !p[0].IsVar() && !p[1].IsVar() && !p[2].IsVar() {
		if g.ContainsID(p) {
			return 1
		}
		return 0
	}
	if !hasRepeatedVar(p) {
		n := len(g.frz.candidates(p))
		if d := g.dlt; d != nil {
			n += len(d.candidates(p))
		}
		if o := g.ovl; o != nil {
			n += len(o.candidates(p))
		}
		return n
	}
	n := 0
	for _, seg := range g.segments(p) {
		for _, t := range seg {
			if MatchesPatternID(p, t) {
				n++
			}
		}
	}
	return n
}

// hasRepeatedVar reports whether the same variable ID occurs in more
// than one position of the encoded pattern.
func hasRepeatedVar(p IDTriple) bool {
	return (p[0].IsVar() && (p[0] == p[1] || p[0] == p[2])) ||
		(p[1].IsVar() && p[1] == p[2])
}

// LookupSegmentsID is the storage seam used by the solvers: it
// returns the candidate posting list for the encoded pattern as one
// segment per tier — the sealed base's list, the sealed delta tier's,
// then the overlay's (nil for an absent tier). Overlay sequence numbers
// are a strict suffix of the delta's, and the delta's of the base's
// (see overlay.go and Freeze), so walking base, delta and then tail IS
// insertion order and no list is ever concatenated. When
// ExactPattern(p) holds every candidate matches the pattern, so callers
// can skip the per-triple MatchesPatternID filter. The slices may alias
// internal storage: callers must not modify them, and they are only
// valid until the next mutation. The result is three slices and no
// more, so it travels in registers: the search makes this call at every
// node.
func (g *Graph) LookupSegmentsID(p IDTriple) (base, delta, tail []IDTriple) {
	base = g.frz.candidates(p)
	if d := g.dlt; d != nil {
		delta = d.candidates(p)
	}
	if o := g.ovl; o != nil {
		tail = o.candidates(p)
	}
	return base, delta, tail
}

// ExactPattern reports whether every candidate LookupSegmentsID (or
// LookupRangeID) returns for the encoded pattern matches it: true
// exactly when the pattern has no repeated variable.
func ExactPattern(p IDTriple) bool { return !hasRepeatedVar(p) }

// segments is LookupSegmentsID's result as one value, for the reads
// that walk or join the tiers off the search path.
type segments [3][]IDTriple

func (g *Graph) segments(p IDTriple) segments {
	base, delta, tail := g.LookupSegmentsID(p)
	return segments{base, delta, tail}
}

func (s segments) len() int { return len(s[0]) + len(s[1]) + len(s[2]) }

// join returns the segments as one list: the only non-empty segment
// itself when at most one is non-empty (an alias of internal storage),
// else a fresh concatenation — never an append onto a segment, whose
// spare capacity may belong to the next range of a frozen arena.
func (s segments) join() []IDTriple {
	only, n := s[0], 0
	for _, seg := range s {
		if len(seg) > 0 {
			only = seg
			n++
		}
	}
	if n <= 1 {
		return only
	}
	out := make([]IDTriple, 0, s.len())
	for _, seg := range s {
		out = append(out, seg...)
	}
	return out
}

// LookupRangeID is LookupSegmentsID with the segments as one list
// (see CandidatesID for when that list is freshly allocated).
func (g *Graph) LookupRangeID(p IDTriple) ([]IDTriple, bool) {
	return g.CandidatesID(p), ExactPattern(p)
}

// CandidatesID selects the most selective index for the encoded
// pattern and returns its posting list. Every triple matching the
// pattern is in the list; the list may contain non-matches when the
// pattern has repeated variables. The list is in insertion order: the
// concatenation of LookupSegmentsID's segments, a fresh slice when
// more than one is non-empty and otherwise an alias of internal
// storage. Either way callers must not modify it.
func (g *Graph) CandidatesID(p IDTriple) []IDTriple {
	if g.dlt == nil && g.ovl == nil {
		return g.frz.candidates(p)
	}
	return g.segments(p).join()
}

// MatchMappings returns, for a triple pattern t, the paper's base-case
// evaluation ⟦t⟧G = {µ | dom(µ) = vars(t), µ(t) ∈ G}. Deduplication
// runs on encoded value vectors, not string keys.
func (g *Graph) MatchMappings(p Triple) []Mapping {
	var names [3]string // variable name per slot
	var slot [3]int     // position → slot, or -1 for constants
	n := 0
	var ip IDTriple
	for i, term := range p.Terms() {
		if !term.IsVar() {
			slot[i] = -1
			id, ok := g.dict.LookupIRI(term.Value)
			if !ok {
				return nil
			}
			ip[i] = id
			continue
		}
		s := -1
		for j := 0; j < n; j++ {
			if names[j] == term.Value {
				s = j
				break
			}
		}
		if s < 0 {
			names[n] = term.Value
			s = n
			n++
		}
		slot[i] = s
		ip[i] = VarID(s)
	}
	var out []Mapping
	seen := map[[3]TermID]struct{}{}
	cands, exact := g.LookupRangeID(ip)
	for _, t := range cands {
		if !exact && !MatchesPatternID(ip, t) {
			continue
		}
		var key [3]TermID
		for i := 0; i < 3; i++ {
			if slot[i] >= 0 {
				key[slot[i]] = t[i]
			}
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		m := make(Mapping, n)
		for j := 0; j < n; j++ {
			m[names[j]] = g.dict.StringOf(key[j])
		}
		out = append(out, m)
	}
	return out
}

// String renders the graph in the WriteGraph line format, in
// deterministic order.
func (g *Graph) String() string { return FormatGraph(g) }

// Clone returns an independent copy of the graph. IDs are preserved:
// the clone's dictionary assigns the same IDs to the same IRIs. The
// clone shares the receiver's immutable sealed tiers (for a graph
// loaded with SnapshotMmap, the mapping must outlive the clone too) and
// deep-copies the overlay, so a write to either graph stays invisible
// to the other. Unlike Fork, the receiver stays writable.
func (g *Graph) Clone() *Graph { return g.withDict(g.dict.Clone()) }

// Merge adds all triples of h into g.
func (g *Graph) Merge(h *Graph) {
	for _, t := range h.TriplesID() {
		g.Add(h.dict.DecodeTriple(t))
	}
}

// Equal reports whether two graphs contain exactly the same triples.
func (g *Graph) Equal(h *Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	for _, t := range g.TriplesID() {
		if !h.Contains(g.dict.DecodeTriple(t)) {
			return false
		}
	}
	return true
}

package rdf

// Bulk loading: cold-start construction of a sealed graph in one
// interning pass plus one compaction. The incremental path (NewGraph +
// Add) grows the overlay's six posting-list maps insert by insert, and
// the first Freeze throws them away; a GraphBuilder never builds them —
// it interns, deduplicates through the membership table the sealed
// base will keep, and accumulates the insertion-order slice; then a
// single counting pass sizes the occurrence table and one
// freezeTriples call lays out the CSR arenas at their exact final size.

import "slices"

// GraphBuilder accumulates ground triples for a bulk load. Add order
// is the insertion order of the resulting graph, exactly as if the
// triples had been Added to a fresh Graph. The zero value is not
// usable; call NewGraphBuilder.
//
// Deduplication runs through memb, an open-addressing table of indices
// into all that is at every moment exactly buildMembership(all): the
// same hash, size membSize(len(all)) and slots filled in index order.
// It grows, by rebuilding, only when an appended triple pushes the
// load past one half, so the freeze adopts it as the sealed base's
// membership table instead of building the set a second time.
type GraphBuilder struct {
	dict *Dict
	all  []IDTriple
	memb []uint32
}

// NewGraphBuilder returns a builder pre-sized for about sizeHint
// triples (a hint, not a cap; zero is fine).
func NewGraphBuilder(sizeHint int) *GraphBuilder {
	return &GraphBuilder{
		dict: NewDict(),
		all:  make([]IDTriple, 0, max(sizeHint, 0)),
		memb: buildMembership(nil),
	}
}

// Dict returns the dictionary the builder interns into: AddID takes
// triples over its IRI IDs.
func (b *GraphBuilder) Dict() *Dict { return b.dict }

// Add inserts a ground triple; it panics on variables, like Graph.Add.
func (b *GraphBuilder) Add(t Triple) {
	if !t.Ground() {
		panic("rdf: cannot add non-ground triple " + t.String() + " to a graph")
	}
	b.AddTriple(t.S.Value, t.P.Value, t.O.Value)
}

// AddTriple inserts the ground triple (s, p, o).
func (b *GraphBuilder) AddTriple(s, p, o string) {
	b.AddID(IDTriple{b.dict.InternIRI(s), b.dict.InternIRI(p), b.dict.InternIRI(o)})
}

// AddID inserts a triple whose every position is an IRI ID interned in
// b.Dict(), and reports whether it was new (a duplicate is dropped).
func (b *GraphBuilder) AddID(t IDTriple) bool {
	mask := uint32(len(b.memb) - 1)
	h := hashIDTriple(t) & mask
	for idx := b.memb[h]; idx != frozenAbsent; idx = b.memb[h] {
		if b.all[idx] == t {
			return false
		}
		h = (h + 1) & mask
	}
	if len(b.all) == cap(b.all) {
		// Double: append grows a long slice by about 1.25×, and a bulk
		// load would copy its triples many times over on the way.
		b.all = append(make([]IDTriple, 0, max(2*len(b.all), 64)), b.all...)
	}
	b.all = append(b.all, t)
	if 2*len(b.all) > len(b.memb) {
		b.memb = buildMembership(b.all)
	} else {
		b.memb[h] = uint32(len(b.all) - 1)
	}
	return true
}

// Len returns the number of (distinct) triples added so far.
func (b *GraphBuilder) Len() int { return len(b.all) }

// Graph compacts the accumulated triples into a sealed graph: one
// counting pass for the occurrence table and dom(G), then the CSR
// freeze, which adopts the builder's membership table. The builder
// must not be used afterwards.
func (b *GraphBuilder) Graph() *Graph {
	d, all, memb := b.dict, b.all, b.memb
	*b = GraphBuilder{}
	if cap(all)-len(all) > len(all)/4 {
		// The graph keeps all for its lifetime: shed the slack that
		// doubling left beyond what append's own growth would have.
		all = slices.Clone(all)
	}
	return graphFromEncoded(d, all, memb)
}

// GraphFromEncoded seals a frozen graph directly from pre-encoded
// triples: d is the dictionary that interned them and all is the
// insertion-order triple slice, already deduplicated, every position
// an interned IRI ID. Ownership of both passes to the graph. The
// result is indistinguishable from feeding the same triples through a
// GraphBuilder.
func GraphFromEncoded(d *Dict, all []IDTriple) *Graph {
	return graphFromEncoded(d, all, nil)
}

// graphFromEncoded is GraphFromEncoded over all's membership table
// memb, exactly buildMembership(all); nil means build it.
func graphFromEncoded(d *Dict, all []IDTriple, memb []uint32) *Graph {
	g := &Graph{dict: d}
	g.occ = make([]int32, d.NumIRIs())
	for _, t := range all {
		for _, id := range t {
			if g.occ[id] == 0 {
				g.domSize++
			}
			g.occ[id]++
		}
	}
	g.frz = freezeTriples(all, memb, d.NumIRIs())
	return g
}

// GraphFromTriples bulk-loads ground triples into a sealed graph. It
// is equivalent to GraphOf(ts...).Freeze() — same triples, same
// dictionary IDs, same insertion order — but never builds the
// overlay's posting lists, so cold load is one pass plus one
// compaction.
func GraphFromTriples(ts []Triple) *Graph {
	b := NewGraphBuilder(len(ts))
	for _, t := range ts {
		b.Add(t)
	}
	return b.Graph()
}

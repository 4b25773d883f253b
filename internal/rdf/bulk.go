package rdf

// Bulk loading: cold-start construction of a sealed graph in one
// interning pass plus one compaction. The incremental path (NewGraph +
// Add) grows the overlay's six posting-list maps insert by insert, and
// the first Freeze throws them away; a GraphBuilder never builds them —
// it interns, deduplicates and accumulates the insertion-order slice,
// then a single counting pass sizes the occurrence table and one
// freezeTriples call lays out the CSR arenas at their exact final size.

// GraphBuilder accumulates ground triples for a bulk load. Add order
// is the insertion order of the resulting graph, exactly as if the
// triples had been Added to a fresh Graph. The zero value is not
// usable; call NewGraphBuilder.
type GraphBuilder struct {
	dict *Dict
	seen map[IDTriple]struct{}
	all  []IDTriple
}

// NewGraphBuilder returns a builder pre-sized for about sizeHint
// triples (a hint, not a cap; zero is fine).
func NewGraphBuilder(sizeHint int) *GraphBuilder {
	sizeHint = max(sizeHint, 0)
	return &GraphBuilder{
		dict: NewDict(),
		seen: make(map[IDTriple]struct{}, sizeHint),
		all:  make([]IDTriple, 0, sizeHint),
	}
}

// Add inserts a ground triple; it panics on variables, like Graph.Add.
func (b *GraphBuilder) Add(t Triple) {
	if !t.Ground() {
		panic("rdf: cannot add non-ground triple " + t.String() + " to a graph")
	}
	b.AddTriple(t.S.Value, t.P.Value, t.O.Value)
}

// AddTriple inserts the ground triple (s, p, o).
func (b *GraphBuilder) AddTriple(s, p, o string) {
	t := IDTriple{b.dict.InternIRI(s), b.dict.InternIRI(p), b.dict.InternIRI(o)}
	if _, ok := b.seen[t]; ok {
		return
	}
	b.seen[t] = struct{}{}
	b.all = append(b.all, t)
}

// Len returns the number of (distinct) triples added so far.
func (b *GraphBuilder) Len() int { return len(b.all) }

// Graph compacts the accumulated triples into a sealed graph: one
// counting pass for the occurrence table and dom(G), then the CSR
// freeze. The builder must not be used afterwards.
func (b *GraphBuilder) Graph() *Graph {
	d, all := b.dict, b.all
	*b = GraphBuilder{}
	return GraphFromEncoded(d, all)
}

// GraphFromEncoded seals a frozen graph directly from pre-encoded
// triples: d is the dictionary that interned them and all is the
// insertion-order triple slice, already deduplicated, every position
// an interned IRI ID. Ownership of both passes to the graph. This is
// the seam the parallel ingest pipeline (internal/ingest) lands on
// after its remap/dedup pass — the result is indistinguishable from
// feeding the same triples through a GraphBuilder.
func GraphFromEncoded(d *Dict, all []IDTriple) *Graph {
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
	g.frz = freezeTriples(all, d.NumIRIs())
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

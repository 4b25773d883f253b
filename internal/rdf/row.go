package rdf

import (
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// This file implements the flat-row representation of solution
// mappings used by the ID-native enumeration pipeline. A query (wdPT,
// wdPF or SPARQL pattern) is compiled against a SlotLayout that
// assigns every variable a dense slot; a solution is then a Row — a
// flat []TermID indexed by slot, with Unbound marking variables
// outside dom(µ) — instead of a map[string]string. Rows make the
// enumeration hot paths (extension, compatibility, deduplication,
// cross products) straight array code: no hashing of variable names,
// no per-mapping map allocation, no sorted string keys.
//
// IDMappingSet is the row-level counterpart of MappingSet: solution
// sets ⟦T⟧G / ⟦F⟧G / ⟦P⟧G kept as a flat arena of rows with an
// open-addressing index of row numbers, hashed from the rows' TermIDs
// in place. Strings are only touched when a set is decoded back into a
// MappingSet at the API boundary.

// Unbound marks an unbound slot in a Row. Bound slot values are always
// IRI IDs (< VarIDBase), so any variable-range ID is safe as the
// sentinel; this one is shared with the hom solver.
const Unbound = ^TermID(0)

// AppendIDLE appends the ID as 4 little-endian bytes — the one
// encoding shared by every packed cache key built from TermIDs (join
// keys, plan-cache keys).
func AppendIDLE(b []byte, id TermID) []byte {
	return append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// Row is a solution mapping in flat form: Row[s] is the image of the
// variable with slot s under the row's SlotLayout, or Unbound.
type Row []TermID

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// SlotLayout assigns the variables of one compiled query dense slots.
// Interning new variables is not safe for concurrent use; a fully
// compiled layout is read-only and safe for concurrent readers.
type SlotLayout struct {
	names []string // slot → variable name (no sigil)
	index map[string]int
}

// NewSlotLayout returns an empty layout.
func NewSlotLayout() *SlotLayout {
	return &SlotLayout{index: map[string]int{}}
}

// Intern returns the slot of the variable with the given name,
// assigning the next dense slot if new. A leading "?" is stripped,
// mirroring Dict.InternVar.
func (l *SlotLayout) Intern(name string) int {
	name = strings.TrimPrefix(name, "?")
	if s, ok := l.index[name]; ok {
		return s
	}
	s := len(l.names)
	l.index[name] = s
	l.names = append(l.names, name)
	return s
}

// Slot returns the slot of a variable name without interning.
func (l *SlotLayout) Slot(name string) (int, bool) {
	s, ok := l.index[strings.TrimPrefix(name, "?")]
	return s, ok
}

// Width returns the number of slots (the row length).
func (l *SlotLayout) Width() int { return len(l.names) }

// Name returns the variable name of a slot.
func (l *SlotLayout) Name(slot int) string { return l.names[slot] }

// NewRow returns a fresh row of the layout's width with every slot
// Unbound.
func (l *SlotLayout) NewRow() Row {
	r := make(Row, len(l.names))
	for i := range r {
		r[i] = Unbound
	}
	return r
}

// Reset marks every slot of the row Unbound.
func (l *SlotLayout) Reset(r Row) {
	for i := range r {
		r[i] = Unbound
	}
}

// DecodeRow decodes a row into a Mapping under the given dictionary
// (the boundary shim from the ID pipeline back to the string API).
func (l *SlotLayout) DecodeRow(d *Dict, r Row) Mapping {
	m := make(Mapping, len(r))
	for s, v := range r {
		if v != Unbound {
			m[l.names[s]] = d.StringOf(v)
		}
	}
	return m
}

// EncodeMapping encodes a mapping as a row. ok is false when some
// variable of the mapping has no slot or some value is unknown to the
// dictionary — in which case the mapping cannot be a solution of any
// query compiled against this layout over the dictionary's graph.
func (l *SlotLayout) EncodeMapping(d *Dict, m Mapping) (Row, bool) {
	r := l.NewRow()
	for name, val := range m {
		s, ok := l.index[strings.TrimPrefix(name, "?")]
		if !ok {
			return nil, false
		}
		id, ok := d.LookupIRI(val)
		if !ok {
			return nil, false
		}
		r[s] = id
	}
	return r, true
}

// IDMappingSet is a deduplicated set of rows sharing one SlotLayout —
// the row-level representation of an evaluation result. Rows live in
// one flat arena in insertion order; membership is an open-addressing
// index of row numbers over that arena. Every row width, 0 and rows
// holding Unbound included, takes the one path: a row is hashed in
// place from its TermIDs, so neither Add nor ContainsRow allocates,
// and only growth (one doubling of the arena or of the index) does.
type IDMappingSet struct {
	layout *SlotLayout
	width  int
	arena  []TermID // n rows of length width, insertion order
	n      int
	// index is a power-of-two linear-probing table kept at load ≤ 1/2.
	// A slot holds 0 (empty) or row+1 in the bits under the mask, with
	// the bits above it taken from the row's hash as a tag, so most
	// probes that miss never touch the arena.
	index []uint32
}

// rowHashSeed keys the row hash once per process, so that ingested
// data cannot plant collision chains in the index.
var rowHashSeed = rand.Uint64()

// hashRow mixes the row's TermIDs through a splitmix64-style step per
// slot and a finalizer; the index is power-of-two sized and tags from
// the high word, so all output bits must carry entropy.
func hashRow(r Row) uint64 {
	h := rowHashSeed
	for _, v := range r {
		h = (h ^ uint64(v)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	h = (h ^ (h >> 30)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// NewIDMappingSet returns an empty set for rows of the given layout.
func NewIDMappingSet(layout *SlotLayout) *IDMappingSet {
	return &IDMappingSet{layout: layout, width: layout.Width()}
}

// Layout returns the slot layout shared by all rows of the set.
func (s *IDMappingSet) Layout() *SlotLayout { return s.layout }

// Len returns the number of distinct rows.
func (s *IDMappingSet) Len() int { return s.n }

// find probes the index for the row: the position holding it (found),
// or else the empty position where it goes. tag is the row's hash bits
// above the index mask, which its entry carries over row number + 1.
func (s *IDMappingSet) find(r Row) (pos, tag uint32, found bool) {
	h := hashRow(r)
	mask := uint32(len(s.index) - 1)
	tag = uint32(h>>32) &^ mask
	for pos = uint32(h) & mask; ; pos = (pos + 1) & mask {
		e := s.index[pos]
		if e == 0 {
			return pos, tag, false
		}
		if e&^mask == tag && slices.Equal(s.Row(int(e&mask)-1), r) {
			return pos, tag, true
		}
	}
}

// grow doubles the index, rehashing every row from the arena, and
// grows the arena to the rows the new index admits: one allocation
// each, so a set of n rows costs O(log n) allocations in all.
func (s *IDMappingSet) grow() {
	size := max(16, 2*len(s.index))
	if uint64(size) > 1<<31 {
		panic("rdf: IDMappingSet: more than 2^30 rows")
	}
	s.arena = slices.Grow(s.arena, (size/2-s.n)*s.width)
	s.index = make([]uint32, size)
	for i := 0; i < s.n; i++ {
		pos, tag, _ := s.find(s.Row(i))
		s.index[pos] = tag | uint32(i+1)
	}
}

// Add inserts a copy of the row, reporting whether it was new. The
// caller keeps ownership of r; its length must equal the layout width.
func (s *IDMappingSet) Add(r Row) bool {
	if len(r) != s.width {
		panic("rdf: IDMappingSet.Add: row width mismatch")
	}
	if 2*(s.n+1) > len(s.index) {
		s.grow()
	}
	pos, tag, found := s.find(r)
	if found {
		return false
	}
	s.arena = append(s.arena, r...)
	s.n++
	s.index[pos] = tag | uint32(s.n)
	return true
}

// ContainsRow reports whether the row is in the set.
func (s *IDMappingSet) ContainsRow(r Row) bool {
	if len(r) != s.width || s.n == 0 {
		return false
	}
	_, _, found := s.find(r)
	return found
}

// Row returns the i-th distinct row in insertion order. The returned
// slice aliases the set's storage: callers must not modify it.
func (s *IDMappingSet) Row(i int) Row {
	return Row(s.arena[i*s.width : (i+1)*s.width])
}

// Each calls yield for every row in insertion order until yield
// returns false. The row passed to yield aliases the set's storage.
func (s *IDMappingSet) Each(yield func(Row) bool) {
	for i := 0; i < s.n; i++ {
		if !yield(s.Row(i)) {
			return
		}
	}
}

// AddAll inserts every row of t into s. The two sets must share the
// same layout (enforced by width).
func (s *IDMappingSet) AddAll(t *IDMappingSet) {
	if t.width != s.width {
		panic("rdf: IDMappingSet.AddAll: layout width mismatch")
	}
	t.Each(func(r Row) bool {
		s.Add(r)
		return true
	})
}

// Decode converts the set into a string-API MappingSet under the given
// dictionary — the decode-at-the-boundary shim that lets ID-native
// evaluation serve the existing Enumerate/Count/Eval signatures.
func (s *IDMappingSet) Decode(d *Dict) *MappingSet {
	out := NewMappingSetCap(s.n)
	s.Each(func(r Row) bool {
		out.Add(s.layout.DecodeRow(d, r))
		return true
	})
	return out
}

// SortedRows returns the rows sorted slot-lexicographically (Unbound
// sorts last within a slot). Used where deterministic output order is
// required; Each/Row preserve the cheaper insertion order.
func (s *IDMappingSet) SortedRows() []Row {
	rows := make([]Row, 0, s.n)
	s.Each(func(r Row) bool {
		rows = append(rows, r)
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return rows
}

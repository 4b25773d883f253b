package rdf

import (
	"math/bits"
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
// sets ⟦T⟧G / ⟦F⟧G / ⟦P⟧G deduplicated on rows packed into two machine
// words, with a byte-string fallback for wider rows. Strings are only
// touched when a set is decoded back into a MappingSet at the API
// boundary.

// Unbound marks an unbound slot in a Row. Bound slot values are always
// IRI IDs (< VarIDBase), so any variable-range ID is safe as the
// sentinel; this one is shared with the hom solver.
const Unbound = ^TermID(0)

// AppendIDLE appends the ID as 4 little-endian bytes — the one
// encoding shared by every packed dedup/cache key built from TermIDs
// (IDMappingSet keys, join keys, plan-cache keys).
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
// the row-level representation of an evaluation result. Dedup keys are
// the packed row values: a two-word [2]uint64 when every value of the
// row fits the per-slot bit budget and width · bits ≤ 128 (no
// allocation per row), and the raw row bytes otherwise. Equal rows
// always take the same path, so a set mixing both is still exact.
// Rows are stored in one flat arena in insertion order.
type IDMappingSet struct {
	layout *SlotLayout
	width  int
	bits   uint // per-slot bits for the packed path

	packed map[[2]uint64]struct{} // nil: rows are wider than 128 bits
	big    map[string]struct{}

	arena  []TermID // n rows of length width, insertion order
	n      int
	keyBuf []byte // scratch for big keys (alloc only on insert)
}

// NewIDMappingSet returns an empty set for rows of the given layout.
// maxID is the exclusive upper bound of the IRI IDs that can occur in
// rows (typically g.Dict().NumIRIs()); it sizes the packed path.
// Rows with values at or above maxID are still handled correctly —
// they fall back to byte-string keys.
func NewIDMappingSet(layout *SlotLayout, maxID int) *IDMappingSet {
	s := &IDMappingSet{layout: layout, width: layout.Width()}
	// A slot packs value+1 (0 is reserved for Unbound), so the budget
	// must cover maxID values: 1..maxID.
	b := uint(bits.Len64(uint64(maxID)))
	if b*uint(s.width) <= 128 {
		s.bits = b
		s.packed = map[[2]uint64]struct{}{}
	}
	s.big = map[string]struct{}{}
	return s
}

// Layout returns the slot layout shared by all rows of the set.
func (s *IDMappingSet) Layout() *SlotLayout { return s.layout }

// Len returns the number of distinct rows.
func (s *IDMappingSet) Len() int { return s.n }

// packedKey packs the row into two words, shifting each slot's value+1
// in from the low end of the 128-bit pair; ok is false when some value
// exceeds the per-slot bit budget.
func (s *IDMappingSet) packedKey(r Row) (key [2]uint64, ok bool) {
	if s.packed == nil {
		return key, false
	}
	b := s.bits
	for _, v := range r {
		packed := uint64(0)
		if v != Unbound {
			packed = uint64(v) + 1
			if b >= 64 || packed >= 1<<b {
				return key, false
			}
		}
		key[0] = key[0]<<b | key[1]>>(64-b)
		key[1] = key[1]<<b | packed
	}
	return key, true
}

// bigKey renders the row into the scratch buffer as 4 little-endian
// bytes per slot.
func (s *IDMappingSet) bigKey(r Row) []byte {
	b := s.keyBuf[:0]
	for _, v := range r {
		b = AppendIDLE(b, v)
	}
	s.keyBuf = b
	return b
}

// Add inserts a copy of the row, reporting whether it was new. The
// caller keeps ownership of r; its length must equal the layout width.
func (s *IDMappingSet) Add(r Row) bool {
	if len(r) != s.width {
		panic("rdf: IDMappingSet.Add: row width mismatch")
	}
	if key, ok := s.packedKey(r); ok {
		if _, dup := s.packed[key]; dup {
			return false
		}
		s.packed[key] = struct{}{}
	} else {
		kb := s.bigKey(r)
		if _, dup := s.big[string(kb)]; dup {
			return false
		}
		s.big[string(kb)] = struct{}{}
	}
	s.arena = append(s.arena, r...)
	s.n++
	return true
}

// ContainsRow reports whether the row is in the set.
func (s *IDMappingSet) ContainsRow(r Row) bool {
	if len(r) != s.width {
		return false
	}
	if key, ok := s.packedKey(r); ok {
		_, in := s.packed[key]
		return in
	}
	_, in := s.big[string(s.bigKey(r))]
	return in
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
// same layout (enforced by width). The destination maps are pre-sized.
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

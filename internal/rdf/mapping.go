package rdf

import (
	"sort"
	"strings"
)

// Mapping is a partial function µ from variables to IRIs (Section 2 of
// the paper). Keys are variable names (without the "?" sigil); values
// are IRI identifiers.
//
// The nil map is a valid empty mapping for read operations; use
// NewMapping or Bind to construct mappings that will be extended.
type Mapping map[string]string

// NewMapping returns an empty mapping.
func NewMapping() Mapping { return Mapping{} }

// Bind returns a copy of µ extended with x ↦ iri. The receiver is not
// modified.
func (m Mapping) Bind(x Term, iri Term) Mapping {
	out := m.Clone()
	out[x.Value] = iri.Value
	return out
}

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Lookup returns the image of the variable x under µ, if defined.
func (m Mapping) Lookup(x Term) (Term, bool) {
	v, ok := m[x.Value]
	if !ok {
		return Term{}, false
	}
	return IRI(v), true
}

// Defined reports whether x ∈ dom(µ).
func (m Mapping) Defined(x Term) bool {
	_, ok := m[x.Value]
	return ok
}

// Dom returns dom(µ) as a sorted slice of variable terms.
func (m Mapping) Dom() []Term {
	out := make([]Term, 0, len(m))
	for k := range m {
		out = append(out, Var(k))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Compatible reports whether µ1 and µ2 agree on dom(µ1) ∩ dom(µ2)
// (the paper's compatibility relation µ1 ~ µ2).
func (m Mapping) Compatible(n Mapping) bool {
	// Iterate over the smaller mapping.
	a, b := m, n
	if len(b) < len(a) {
		a, b = b, a
	}
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			return false
		}
	}
	return true
}

// Union returns µ1 ∪ µ2 for compatible mappings. The second return
// value is false when the mappings are incompatible.
func (m Mapping) Union(n Mapping) (Mapping, bool) {
	if !m.Compatible(n) {
		return nil, false
	}
	out := make(Mapping, len(m)+len(n))
	for k, v := range m {
		out[k] = v
	}
	for k, v := range n {
		out[k] = v
	}
	return out, true
}

// Restrict returns the restriction of µ to the given set of variables.
func (m Mapping) Restrict(vars []Term) Mapping {
	out := NewMapping()
	for _, x := range vars {
		if v, ok := m[x.Value]; ok {
			out[x.Value] = v
		}
	}
	return out
}

// Equal reports whether two mappings have the same domain and agree on it.
func (m Mapping) Equal(n Mapping) bool {
	if len(m) != len(n) {
		return false
	}
	for k, v := range m {
		if w, ok := n[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// ApplyTerm replaces a variable term by its image under µ when defined;
// other terms are returned unchanged.
func (m Mapping) ApplyTerm(t Term) Term {
	if t.IsVar() {
		if v, ok := m[t.Value]; ok {
			return IRI(v)
		}
	}
	return t
}

// Apply returns µ(t): the triple with every variable in dom(µ) replaced
// by its image. Variables outside dom(µ) are left in place.
func (m Mapping) Apply(t Triple) Triple {
	return Triple{S: m.ApplyTerm(t.S), P: m.ApplyTerm(t.P), O: m.ApplyTerm(t.O)}
}

// ApplyAll maps Apply over a slice of triples.
func (m Mapping) ApplyAll(ts []Triple) []Triple {
	out := make([]Triple, len(ts))
	for i, t := range ts {
		out[i] = m.Apply(t)
	}
	return out
}

// Key returns a canonical string key for the mapping, usable as a map
// key for solution deduplication.
func (m Mapping) Key() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
		b.WriteByte(';')
	}
	return b.String()
}

// String renders the mapping as {?x↦a, ?y↦b} with sorted keys.
func (m Mapping) String() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('?')
		b.WriteString(k)
		b.WriteString("->")
		b.WriteString(m[k])
	}
	b.WriteByte('}')
	return b.String()
}

// MappingSet is a deduplicated collection of mappings, used to
// represent evaluation results ⟦P⟧G. Deduplication keys are built from
// dictionary-encoded (variable, value) ID pairs — sorting and packing
// integers instead of concatenating sorted strings — with a private
// Dict shared by all mappings in the set.
type MappingSet struct {
	dict  *Dict
	byKey map[string]Mapping
	pairs []uint64 // write-path scratch, reused across Add calls
}

// NewMappingSet returns an empty set.
func NewMappingSet() *MappingSet {
	return NewMappingSetCap(0)
}

// NewMappingSetCap returns an empty set pre-sized for n mappings.
// Callers that know the result cardinality (decode shims, AddAll)
// avoid incremental map growth.
func NewMappingSetCap(n int) *MappingSet {
	return &MappingSet{dict: NewDict(), byKey: make(map[string]Mapping, n)}
}

// key packs the mapping into a canonical byte string of sorted
// (varID, valueID) pairs under the set's dictionary, interning any
// new strings. Use only on the write path (Add). The pair buffer is
// reused across calls; only the returned key string is allocated.
func (s *MappingSet) key(m Mapping) string {
	pairs := s.pairs[:0]
	for k, v := range m {
		vid := uint64(s.dict.InternVar(k) - VarIDBase)
		pairs = append(pairs, vid<<32|uint64(s.dict.InternIRI(v)))
	}
	s.pairs = pairs
	return packPairs(pairs)
}

// lookupKey is key without interning: ok is false when some variable
// or value is unknown to the set's dictionary, in which case the
// mapping cannot be in the set. Safe for concurrent readers.
func (s *MappingSet) lookupKey(m Mapping) (string, bool) {
	pairs := make([]uint64, 0, 8)
	for k, v := range m {
		varID, ok := s.dict.LookupVar(k)
		if !ok {
			return "", false
		}
		valID, ok := s.dict.LookupIRI(v)
		if !ok {
			return "", false
		}
		pairs = append(pairs, uint64(varID-VarIDBase)<<32|uint64(valID))
	}
	return packPairs(pairs), true
}

func packPairs(pairs []uint64) string {
	// Insertion sort: domains are small and this avoids the sort.Slice
	// closure allocation.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j] < pairs[j-1]; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	b := make([]byte, 0, len(pairs)*8)
	for _, p := range pairs {
		b = append(b,
			byte(p), byte(p>>8), byte(p>>16), byte(p>>24),
			byte(p>>32), byte(p>>40), byte(p>>48), byte(p>>56))
	}
	return string(b)
}

// Add inserts µ into the set; duplicates are ignored. It reports
// whether the mapping was newly added.
func (s *MappingSet) Add(m Mapping) bool {
	k := s.key(m)
	if _, ok := s.byKey[k]; ok {
		return false
	}
	s.byKey[k] = m
	return true
}

// Contains reports whether µ ∈ s. It never interns, so misses do not
// grow the set's dictionary.
func (s *MappingSet) Contains(m Mapping) bool {
	k, ok := s.lookupKey(m)
	if !ok {
		return false
	}
	_, in := s.byKey[k]
	return in
}

// Len returns the number of distinct mappings in the set.
func (s *MappingSet) Len() int { return len(s.byKey) }

// Slice returns the mappings in a deterministic order (sorted by the
// canonical string key of each mapping; keys are computed once per
// mapping, not per comparison).
func (s *MappingSet) Slice() []Mapping {
	type keyed struct {
		key string
		m   Mapping
	}
	ks := make([]keyed, 0, len(s.byKey))
	for _, m := range s.byKey {
		ks = append(ks, keyed{key: m.Key(), m: m})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]Mapping, len(ks))
	for i, k := range ks {
		out[i] = k.m
	}
	return out
}

// AddAll inserts every mapping of t into s. An empty destination is
// pre-sized for |t| up front (the common union-of-results case);
// a non-empty one grows incrementally rather than paying a rehash of
// the existing entries on every call.
func (s *MappingSet) AddAll(t *MappingSet) {
	if len(s.byKey) == 0 && len(t.byKey) > 0 {
		s.byKey = make(map[string]Mapping, len(t.byKey))
	}
	for _, m := range t.byKey {
		s.Add(m)
	}
}

package rdf

import "strings"

// This file implements dictionary encoding for terms: every IRI and
// every variable is interned to a dense integer TermID, and triples
// become IDTriple values of three machine words. Real SPARQL engines
// dictionary-encode terms because the workloads are join- and
// closure-heavy; interning turns hashing, equality and set membership
// on the hot paths (Graph.Match, the homomorphism solver, the pebble
// closure) into integer operations.
//
// IRIs and variables live in disjoint ID ranges so that the kind of a
// term is a single range check: IRI IDs are dense from 0, variable IDs
// are dense from VarIDBase = 1<<31. A Graph owns a private Dict that is
// populated only by Add/AddID, so the dictionary's IRI table tracks
// exactly the IRIs that were ever inserted; read operations (Match,
// Contains, ...) never intern and are therefore safe for concurrent
// use.

// TermID is a dictionary-encoded term: either an interned IRI
// (id < VarIDBase) or an interned variable (id ≥ VarIDBase).
type TermID uint32

// VarIDBase is the first variable ID. IRIs occupy [0, VarIDBase) and
// variables [VarIDBase, 1<<32), so IsVar is a range check.
const VarIDBase TermID = 1 << 31

// IsVar reports whether the ID denotes a variable.
func (id TermID) IsVar() bool { return id >= VarIDBase }

// VarID returns the variable ID with the given dense index. Solvers
// use it to mint positional variable IDs (slots) without touching any
// dictionary: two pattern positions carry the same variable iff they
// carry the same TermID.
func VarID(slot int) TermID { return VarIDBase + TermID(slot) }

// IDTriple is a dictionary-encoded triple or triple pattern: three
// TermIDs in (S, P, O) order. Encoded ground triples contain only IRI
// IDs; encoded patterns may contain variable IDs.
type IDTriple [3]TermID

// Less imposes the lexicographic total order on encoded triples, used
// to keep posting lists ID-sorted.
func (t IDTriple) Less(u IDTriple) bool {
	if t[0] != u[0] {
		return t[0] < u[0]
	}
	if t[1] != u[1] {
		return t[1] < u[1]
	}
	return t[2] < u[2]
}

// Dict interns strings to dense TermIDs, IRIs and variables
// separately. The zero value is not usable; call NewDict.
//
// A dictionary is either a root (parent == nil, the common case) or a
// copy-on-write extension of an immutable parent (built by Fork): the
// extension assigns IDs densely continuing the parent's ranges and
// keeps only its own terms in local tables, so forking is O(extension),
// not O(dictionary). Lookups check the parent first — parents are
// read-only from the moment of the fork, so any number of forks (and
// the readers of the generations holding them) can share one parent
// concurrently. The mutable-overlay write path (see overlay.go) relies
// on exactly that: every ingest generation forks the dictionary instead
// of copying it.
type Dict struct {
	parent       *Dict // immutable shared base; nil for a root dict
	pIRIs, pVars int   // parent table sizes at fork time

	iriID map[string]TermID // local terms only (IDs ≥ pIRIs)
	iris  []string
	varID map[string]TermID
	vars  []string

	// mapped marks a dictionary whose IRI strings (its own, or its
	// parent's) alias a memory-mapped snapshot image (loadDict under
	// SnapshotMmap): they are valid only while the image stays mapped,
	// so StringOf, and every decode built on it, hands out heap copies.
	mapped bool
}

// NewDict returns an empty root dictionary.
func NewDict() *Dict {
	return &Dict{iriID: map[string]TermID{}, varID: map[string]TermID{}}
}

// Fork returns a copy-on-write extension of d: a dictionary with the
// same contents and IDs whose future interns stay local to the fork.
// From the fork on, d must be treated as immutable — interning into a
// forked-from dictionary would assign IDs the fork has already claimed
// for its own terms. Forking an extension re-parents onto the same
// root (the chain never deepens), copying only the extension tables.
func (d *Dict) Fork() *Dict {
	if d.parent == nil {
		return &Dict{
			parent: d, pIRIs: len(d.iris), pVars: len(d.vars),
			iriID: map[string]TermID{}, varID: map[string]TermID{},
			mapped: d.mapped,
		}
	}
	out := &Dict{
		parent: d.parent, pIRIs: d.pIRIs, pVars: d.pVars, mapped: d.mapped,
		iriID: make(map[string]TermID, len(d.iriID)),
		iris:  append([]string(nil), d.iris...),
		varID: make(map[string]TermID, len(d.varID)),
		vars:  append([]string(nil), d.vars...),
	}
	for k, v := range d.iriID {
		out.iriID[k] = v
	}
	for k, v := range d.varID {
		out.varID[k] = v
	}
	return out
}

// InternIRI returns the ID of the IRI value, interning it if new.
func (d *Dict) InternIRI(v string) TermID {
	if p := d.parent; p != nil {
		if id, ok := p.iriID[v]; ok {
			return id
		}
	}
	if id, ok := d.iriID[v]; ok {
		return id
	}
	if d.pIRIs+len(d.iris) >= int(VarIDBase) {
		panic("rdf: dictionary overflow: 2^31 IRIs")
	}
	id := TermID(d.pIRIs + len(d.iris))
	d.iriID[v] = id
	d.iris = append(d.iris, v)
	return id
}

// InternVar returns the ID of the variable with the given name,
// interning it if new. A leading "?" is stripped, mirroring Var.
func (d *Dict) InternVar(v string) TermID {
	v = strings.TrimPrefix(v, "?")
	if p := d.parent; p != nil {
		if id, ok := p.varID[v]; ok {
			return id
		}
	}
	if id, ok := d.varID[v]; ok {
		return id
	}
	if d.pVars+len(d.vars) >= int(VarIDBase) {
		panic("rdf: dictionary overflow: 2^31 variables")
	}
	id := VarIDBase + TermID(d.pVars+len(d.vars))
	d.varID[v] = id
	d.vars = append(d.vars, v)
	return id
}

// Intern returns the ID of the term, interning it if new.
func (d *Dict) Intern(t Term) TermID {
	if t.IsVar() {
		return d.InternVar(t.Value)
	}
	return d.InternIRI(t.Value)
}

// LookupIRI returns the ID of an IRI value without interning.
func (d *Dict) LookupIRI(v string) (TermID, bool) {
	if p := d.parent; p != nil {
		if id, ok := p.iriID[v]; ok {
			return id, true
		}
	}
	id, ok := d.iriID[v]
	return id, ok
}

// LookupVar returns the ID of a variable name without interning.
func (d *Dict) LookupVar(v string) (TermID, bool) {
	v = strings.TrimPrefix(v, "?")
	if p := d.parent; p != nil {
		if id, ok := p.varID[v]; ok {
			return id, true
		}
	}
	id, ok := d.varID[v]
	return id, ok
}

// Lookup returns the ID of a term without interning.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	if t.IsVar() {
		return d.LookupVar(t.Value)
	}
	return d.LookupIRI(t.Value)
}

// StringOf returns the string interned under the ID (the IRI value or
// the variable name, without sigil). It panics on an unknown ID. The
// string is the caller's to keep: for a dictionary read off a mapped
// snapshot image it is a heap copy, valid after Snapshot.Close.
func (d *Dict) StringOf(id TermID) string {
	s := d.StringRef(id)
	if d.mapped {
		return strings.Clone(s)
	}
	return s
}

// StringRef is StringOf without the copy: the string may alias a mapped
// snapshot image and is then valid only until the image is unmapped.
// For callers that use it at once and keep nothing of it — the
// response encoders copy its bytes into their buffer.
func (d *Dict) StringRef(id TermID) string {
	if id.IsVar() {
		slot := int(id - VarIDBase)
		if slot < d.pVars {
			return d.parent.vars[slot]
		}
		return d.vars[slot-d.pVars]
	}
	if int(id) < d.pIRIs {
		return d.parent.iris[id]
	}
	return d.iris[int(id)-d.pIRIs]
}

// TermOf decodes an ID back into a Term.
func (d *Dict) TermOf(id TermID) Term {
	if id.IsVar() {
		return Term{Kind: KindVar, Value: d.StringOf(id)}
	}
	return Term{Kind: KindIRI, Value: d.StringOf(id)}
}

// NumIRIs returns the number of interned IRIs.
func (d *Dict) NumIRIs() int { return d.pIRIs + len(d.iris) }

// NumVars returns the number of interned variables.
func (d *Dict) NumVars() int { return d.pVars + len(d.vars) }

// EncodeTriple interns all three positions of a triple or pattern.
func (d *Dict) EncodeTriple(t Triple) IDTriple {
	return IDTriple{d.Intern(t.S), d.Intern(t.P), d.Intern(t.O)}
}

// DecodeTriple inverts EncodeTriple.
func (d *Dict) DecodeTriple(t IDTriple) Triple {
	return Triple{S: d.TermOf(t[0]), P: d.TermOf(t[1]), O: d.TermOf(t[2])}
}

// Clone returns a deep copy of the dictionary; the copy assigns the
// same IDs to the same strings. Cloning a forked dictionary flattens
// it: the copy is a self-contained root with no parent pointer, so a
// clone never ties the lifetime of its source's parent.
func (d *Dict) Clone() *Dict {
	ni, nv := d.NumIRIs(), d.NumVars()
	out := &Dict{
		iriID:  make(map[string]TermID, ni),
		iris:   make([]string, 0, ni),
		varID:  make(map[string]TermID, nv),
		vars:   make([]string, 0, nv),
		mapped: d.mapped,
	}
	if p := d.parent; p != nil {
		out.iris = append(out.iris, p.iris[:d.pIRIs]...)
		out.vars = append(out.vars, p.vars[:d.pVars]...)
	}
	out.iris = append(out.iris, d.iris...)
	out.vars = append(out.vars, d.vars...)
	for i, s := range out.iris {
		out.iriID[s] = TermID(i)
	}
	for i, s := range out.vars {
		out.varID[s] = VarIDBase + TermID(i)
	}
	return out
}

// irisAll returns the dictionary's IRI table in ID order. For a root
// dictionary this is the internal slice (callers must not modify it);
// for a forked dictionary it stitches the parent prefix and the local
// extension into a fresh slice.
func (d *Dict) irisAll() []string {
	if d.parent == nil {
		return d.iris
	}
	out := make([]string, 0, d.NumIRIs())
	out = append(out, d.parent.iris[:d.pIRIs]...)
	return append(out, d.iris...)
}

// MatchesPatternID reports whether the ground encoded triple t matches
// the encoded pattern p: IRI positions must be equal, variable
// positions match anything, and repeated variables must bind the same
// value (e.g. (?x, r, ?x) only matches loops). With at most three
// positions the repeated-variable check runs on fixed-size scratch
// arrays, with no allocation.
func MatchesPatternID(p, t IDTriple) bool {
	var pv, bv [3]TermID // pattern var IDs seen, and their bound values
	nb := 0
	for i := 0; i < 3; i++ {
		pi := p[i]
		if !pi.IsVar() {
			if pi != t[i] {
				return false
			}
			continue
		}
		seen := false
		for j := 0; j < nb; j++ {
			if pv[j] == pi {
				if bv[j] != t[i] {
					return false
				}
				seen = true
				break
			}
		}
		if !seen {
			pv[nb], bv[nb] = pi, t[i]
			nb++
		}
	}
	return true
}

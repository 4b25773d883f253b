package hom

import (
	"sort"

	"wdsparql/internal/rdf"
)

// This file implements homomorphism search from a set of triple
// patterns into an RDF graph as a backtracking join: at every step the
// remaining pattern with the fewest matches under the current partial
// assignment is expanded (a fail-first / most-constrained-first
// heuristic), and its matches drive the branching.
//
// The search is integer-native: patterns are compiled once against the
// graph's term dictionary (variables become dense slots, IRIs become
// TermIDs), the partial assignment is a flat []TermID indexed by slot,
// and candidate selection runs on the graph's ID posting lists
// through the LookupRangeID backend seam: on a frozen graph the
// selectivity counts of the fail-first heuristic are O(1) offset
// probes (O(log) for two bound positions) and exact candidate ranges
// skip the per-triple pattern filter entirely. Strings are only
// touched when a found assignment is decoded into an rdf.Mapping.
//
// Deciding the existence of a homomorphism is NP-complete in general
// (Chandra–Merlin); this solver is the exact (exponential worst-case)
// procedure that the paper's "natural algorithm" for wdPF evaluation
// relies on, and the baseline that the existential-pebble-game
// relaxation of internal/pebble is compared against.

// Exists reports whether there is a homomorphism h with
// dom(h) = vars(pats) such that h(t) ∈ g for every t ∈ pats.
// IRIs map to themselves; an empty pattern set admits the empty
// homomorphism.
func Exists(pats []rdf.Triple, g *rdf.Graph) bool {
	_, ok := Find(pats, g)
	return ok
}

// ExistsExtending reports whether there is a homomorphism from pats to
// g that extends µ, i.e. the paper's (S, dom(µ)) →µ G. It first
// applies µ to the patterns and then searches for the remaining
// variables.
func ExistsExtending(pats []rdf.Triple, mu rdf.Mapping, g *rdf.Graph) bool {
	return Exists(mu.ApplyAll(pats), g)
}

// Find returns a homomorphism from pats to g if one exists. The
// returned mapping binds exactly vars(pats).
func Find(pats []rdf.Triple, g *rdf.Graph) (rdf.Mapping, bool) {
	st := newSearch(pats, g, 1)
	st.run()
	if len(st.found) == 0 {
		return nil, false
	}
	return st.found[0], true
}

// FindAll returns all homomorphisms from pats to g, up to limit
// (limit ≤ 0 means no limit). The result contains no duplicates.
func FindAll(pats []rdf.Triple, g *rdf.Graph, limit int) []rdf.Mapping {
	st := newSearch(pats, g, limit)
	st.run()
	return st.found
}

// FindExtending returns a homomorphism from pats to g extending µ, if
// any; the returned mapping includes µ's bindings for variables of
// pats that µ binds.
func FindExtending(pats []rdf.Triple, mu rdf.Mapping, g *rdf.Graph) (rdf.Mapping, bool) {
	sub := mu.ApplyAll(pats)
	h, ok := Find(sub, g)
	if !ok {
		return nil, false
	}
	// Re-attach the bindings of µ that concern pats.
	for _, v := range rdf.VarsOf(pats) {
		if img, bound := mu.Lookup(v); bound {
			h[v.Value] = img.Value
		}
	}
	return h, true
}

// unbound marks an unassigned slot. Slot values are always IRI IDs
// (< rdf.VarIDBase), so any variable-range ID works as the sentinel.
const unbound = ^rdf.TermID(0)

// cpat is a compiled triple pattern: code[i] ≥ 0 is a variable slot,
// code[i] < 0 encodes the IRI TermID ^code[i] (IRI IDs are dense below
// 2³¹ and fit an int32 after complement).
type cpat struct {
	code [3]int32
}

type search struct {
	g        *rdf.Graph
	limit    int
	pats     []cpat
	done     []bool
	varNames []string       // slot → variable name
	assign   []rdf.TermID   // slot → bound IRI ID, or unbound
	bound    []rdf.TermID   // dense stack of currently-bound values
	bufs     [][]scoredCand // per-depth candidate buffers, reused across nodes
	found    []rdf.Mapping
	absent   bool // some pattern constant is not in g: no matches
	counting bool
	nodes    int
}

// scoredCand is a matching candidate triple together with its
// value-ordering score.
type scoredCand struct {
	t     rdf.IDTriple
	score int64
}

// reuseBonus dominates any realistic occurrence count, so candidates
// that reuse values already in the homomorphism image always sort
// before candidates that merely bind well-connected fresh values.
const reuseBonus = int64(1) << 32

func newSearch(pats []rdf.Triple, g *rdf.Graph, limit int) *search {
	s := &search{
		g:     g,
		limit: limit,
		pats:  make([]cpat, len(pats)),
		done:  make([]bool, len(pats)),
	}
	slots := map[string]int32{}
	dict := g.Dict()
	for pi, p := range pats {
		for i, term := range p.Terms() {
			if term.IsVar() {
				slot, ok := slots[term.Value]
				if !ok {
					slot = int32(len(s.varNames))
					slots[term.Value] = slot
					s.varNames = append(s.varNames, term.Value)
				}
				s.pats[pi].code[i] = slot
				continue
			}
			id, ok := dict.LookupIRI(term.Value)
			if !ok {
				s.absent = true
			}
			s.pats[pi].code[i] = ^int32(id)
		}
	}
	s.assign = make([]rdf.TermID, len(s.varNames))
	for i := range s.assign {
		s.assign[i] = unbound
	}
	s.bufs = make([][]scoredCand, len(pats))
	return s
}

// substitute renders pattern i under the current assignment as an
// encoded pattern: bound slots and constants become IRI IDs, unbound
// slots become per-slot variable IDs (so repeated variables stay
// linked).
func (s *search) substitute(i int) rdf.IDTriple {
	var out rdf.IDTriple
	cp := &s.pats[i]
	for pos := 0; pos < 3; pos++ {
		c := cp.code[pos]
		if c < 0 {
			out[pos] = rdf.TermID(^c)
			continue
		}
		if v := s.assign[c]; v != unbound {
			out[pos] = v
		} else {
			out[pos] = rdf.VarID(int(c))
		}
	}
	return out
}

func (s *search) run() {
	if s.absent && len(s.pats) > 0 {
		// A constant of some pattern does not occur in g at all: there
		// are no matches. Count the root node the search would have
		// expanded before failing.
		if s.counting {
			s.nodes++
		}
		return
	}
	s.rec(len(s.pats))
}

// mapping decodes the complete assignment into an rdf.Mapping.
func (s *search) mapping() rdf.Mapping {
	m := make(rdf.Mapping, len(s.varNames))
	dict := s.g.Dict()
	for slot, name := range s.varNames {
		m[name] = dict.StringOf(s.assign[slot])
	}
	return m
}

// rec expands one remaining pattern; remaining counts patterns not yet
// matched. It returns false when the search should stop (limit hit).
func (s *search) rec(remaining int) bool {
	if s.counting {
		s.nodes++
	}
	if remaining == 0 {
		s.found = append(s.found, s.mapping())
		return s.limit <= 0 || len(s.found) < s.limit
	}
	// Pick the remaining pattern with the fewest matches under the
	// current assignment (fail-first). Counts are posting-list lengths
	// for patterns without repeated variables.
	best, bestCount := -1, -1
	var bestPat rdf.IDTriple
	for i := range s.pats {
		if s.done[i] {
			continue
		}
		p := s.substitute(i)
		c := s.g.MatchCountID(p)
		if c == 0 {
			return true // dead branch; keep searching elsewhere
		}
		if best == -1 || c < bestCount {
			best, bestCount, bestPat = i, c, p
			if c == 1 {
				break
			}
		}
	}
	s.done[best] = true
	cp := &s.pats[best]
	// Collect the matching candidates into this depth's reusable
	// buffer, scored for succeed-first value ordering: a large bonus
	// for every newly bound value that is already in the image of the
	// partial homomorphism (or a constant of the pattern) — reusing a
	// value adds no constraints beyond those already checked and steers
	// towards small-image, folding-style homomorphisms — plus the
	// occurrence count of each fresh value (well-connected values are
	// the likeliest to extend; cf. degree ordering in subgraph
	// isomorphism). On refutations the order is irrelevant since the
	// search exhausts the subtree anyway.
	depth := len(s.pats) - remaining
	cands := s.bufs[depth][:0]
	raw, exact := s.g.LookupRangeID(bestPat)
	for _, t := range raw {
		if !exact && !rdf.MatchesPatternID(bestPat, t) {
			continue
		}
		var score int64
		for pos := 0; pos < 3; pos++ {
			if c := cp.code[pos]; c >= 0 && s.assign[c] == unbound {
				if s.inImage(t[pos], bestPat) {
					score += reuseBonus
				}
				score += int64(s.g.OccurrencesID(t[pos]))
			}
		}
		cands = append(cands, scoredCand{t: t, score: score})
	}
	s.bufs[depth] = cands
	if len(cands) > 1 {
		sortCands(cands)
	}
	for _, sc := range cands {
		t := sc.t
		// Bind the slots this match newly determines.
		var newSlots [3]int32
		n := 0
		for pos := 0; pos < 3; pos++ {
			c := cp.code[pos]
			if c >= 0 && s.assign[c] == unbound {
				s.assign[c] = t[pos]
				s.bound = append(s.bound, t[pos])
				newSlots[n] = c
				n++
			}
		}
		more := s.rec(remaining - 1)
		for j := 0; j < n; j++ {
			s.assign[newSlots[j]] = unbound
		}
		s.bound = s.bound[:len(s.bound)-n]
		if !more {
			s.done[best] = false
			return false
		}
	}
	s.done[best] = false
	return true
}

// inImage reports whether the value is already used by the partial
// homomorphism: bound to some slot, or a constant position of the
// pattern being expanded. The scan runs over the dense bound-value
// stack maintained across bind/unbind, so its cost tracks the number
// of bound slots, not the full slot count; at typical pattern widths
// these short scans beat maintaining a hash multiset.
func (s *search) inImage(v rdf.TermID, pat rdf.IDTriple) bool {
	for _, a := range s.bound {
		if a == v {
			return true
		}
	}
	for _, p := range pat {
		if p == v {
			return true
		}
	}
	return false
}

// sortCands orders candidates by descending score, ties broken by
// ascending triple ID for determinism. Candidate lists on the chosen
// (most constrained) pattern are typically short, so insertion sort
// wins below a cutoff; larger lists fall back to sort.Slice.
func sortCands(cands []scoredCand) {
	if len(cands) <= 32 {
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		return
	}
	sort.Slice(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
}

func candLess(a, b scoredCand) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.t.Less(b.t)
}

// Hom reports whether (from) → (to) holds for generalised t-graphs
// sharing the distinguished set X: a homomorphism from from.S to to.S
// that fixes every variable of from.X (Section 3 of the paper).
func Hom(from, to GTGraph) bool {
	return Exists(freezeSource(from), Freeze(to.S))
}

// FindHom returns a witnessing homomorphism for (from) → (to) as a
// partial function from the variables of from.S to terms of to.S.
// Distinguished variables are included, mapped to themselves.
func FindHom(from, to GTGraph) (map[rdf.Term]rdf.Term, bool) {
	h, ok := Find(freezeSource(from), Freeze(to.S))
	if !ok {
		return nil, false
	}
	out := map[rdf.Term]rdf.Term{}
	for _, v := range from.S.Vars() {
		if from.IsDistinguished(v) {
			out[v] = v
			continue
		}
		img, bound := h.Lookup(v)
		if !bound {
			// Variable absent from the frozen search (cannot happen
			// for vars(S), every variable occurs in a triple).
			out[v] = v
			continue
		}
		out[v] = ThawTerm(img)
	}
	return out, true
}

// HomTo reports (from) →µ G: a homomorphism from from.S to the RDF
// graph g mapping each x ∈ from.X to µ(x). µ must bind exactly the
// distinguished variables (extra bindings are ignored, missing ones
// make the test fail unless the variable does not occur).
func HomTo(from GTGraph, mu rdf.Mapping, g *rdf.Graph) bool {
	for _, x := range from.X {
		if !mu.Defined(x) {
			return false
		}
	}
	return ExistsExtending(from.S, mu, g)
}

// Equivalent reports homomorphic equivalence (from) ⇆ (to).
func Equivalent(a, b GTGraph) bool {
	return Hom(a, b) && Hom(b, a)
}

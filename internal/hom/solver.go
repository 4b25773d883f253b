package hom

import (
	"wdsparql/internal/rdf"
)

// This file is the string API of the homomorphism solver: thin entries
// over the one row search of rows.go. Each call compiles its patterns
// into a RowProgram under a private rdf.SlotLayout, seeds µ into the
// row, and runs a RowSearcher; Exists-style entries stop at the first
// match without decoding, and only the Find entries decode their
// matches (SlotLayout.DecodeRow).
//
// Deciding the existence of a homomorphism is NP-complete in general
// (Chandra–Merlin); this search is the exact (exponential worst-case)
// procedure that the paper's "natural algorithm" for wdPF evaluation
// relies on, and the baseline that the existential-pebble-game
// relaxation of internal/pebble is compared against.

// Exists reports whether there is a homomorphism h with
// dom(h) = vars(pats) such that h(t) ∈ g for every t ∈ pats.
// IRIs map to themselves; an empty pattern set admits the empty
// homomorphism.
func Exists(pats []rdf.Triple, g *rdf.Graph) bool {
	return ExistsExtending(pats, nil, g)
}

// ExistsExtending reports whether there is a homomorphism from pats to
// g that extends µ, i.e. the paper's (S, dom(µ)) →µ G. µ's bindings of
// vars(pats) are constants of the search; its other bindings are
// ignored.
func ExistsExtending(pats []rdf.Triple, mu rdf.Mapping, g *rdf.Graph) bool {
	found := false
	run(pats, mu, g, func(*rdf.SlotLayout, rdf.Row) bool {
		found = true
		return false
	})
	return found
}

// Find returns a homomorphism from pats to g if one exists. The
// returned mapping binds exactly vars(pats).
func Find(pats []rdf.Triple, g *rdf.Graph) (rdf.Mapping, bool) {
	all := FindAll(pats, g, 1)
	if len(all) == 0 {
		return nil, false
	}
	return all[0], true
}

// FindAll returns all homomorphisms from pats to g, up to limit
// (limit ≤ 0 means no limit), in the row search's order. The result
// contains no duplicates.
func FindAll(pats []rdf.Triple, g *rdf.Graph, limit int) []rdf.Mapping {
	var out []rdf.Mapping
	run(pats, nil, g, func(layout *rdf.SlotLayout, row rdf.Row) bool {
		out = append(out, layout.DecodeRow(g.Dict(), row))
		return limit <= 0 || len(out) < limit
	})
	return out
}

// run compiles pats against g under a private layout, seeds the row
// with µ's bindings of vars(pats) and hands every complete match to
// yield (the row is valid only during the call) until yield returns
// false. A µ value outside g's dictionary admits no match.
func run(pats []rdf.Triple, mu rdf.Mapping, g *rdf.Graph, yield func(*rdf.SlotLayout, rdf.Row) bool) {
	layout := rdf.NewSlotLayout()
	prog := CompileRowProgram(pats, g, layout)
	row := layout.NewRow()
	for name, val := range mu {
		slot, ok := layout.Slot(name)
		if !ok {
			continue
		}
		if row[slot], ok = g.Dict().LookupIRI(val); !ok {
			return
		}
	}
	prog.NewSearcher().Run(row, func() bool { return yield(layout, row) })
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
		if img, bound := h.Lookup(v); bound {
			out[v] = ThawTerm(img)
		} else {
			out[v] = v // distinguished: frozen into a constant, fixed
		}
	}
	return out, true
}

// Equivalent reports homomorphic equivalence (from) ⇆ (to).
func Equivalent(a, b GTGraph) bool {
	return Hom(a, b) && Hom(b, a)
}

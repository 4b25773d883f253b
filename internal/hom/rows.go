package hom

import (
	"context"
	"errors"
	"slices"
	"sync"

	"wdsparql/internal/plan"
	"wdsparql/internal/rdf"
)

// This file is the homomorphism solver's one backtracking search. A
// set of triple patterns is compiled once against a graph and a slot
// layout (variables become caller-assigned slots of an rdf.SlotLayout,
// which a whole pattern tree may share; IRIs become TermIDs), and
// matches are emitted directly as bindings into a caller-provided flat
// row — no rdf.Mapping is built and no string is decoded. The top-down
// enumeration of ⟦T⟧G streams its solutions out of it: the partial
// solution accumulated down a wdPT branch *is* the row, bound slots act
// as constants of the search (the paper's "extends µ" side condition),
// and newly matched slots are written in place and undone on
// backtrack. Ask's extension tests, the string API of solver.go and the
// cores and widths built on it run the same search.
//
// At every node the remaining pattern with the fewest matches under the
// row is expanded (fail-first; see planner.go for the modes), and its
// candidates stream in storage order: the LookupSegmentsID posting list
// is walked in place — the sealed base's segment, then the delta
// tier's, then the overlay's — never copied, scored or sorted, so the first match costs one path
// down the search tree and a search allocates nothing.
// Storage order is insertion order on every backend
// (internal/rdf/backendtest pins it), which is what makes the stream
// identical across backends, workers, planner modes and filter
// placement.

// cpat is a compiled triple pattern: code[i] ≥ 0 is a variable slot,
// code[i] < 0 encodes the IRI TermID ^code[i] (IRI IDs are dense below
// 2³¹ and fit an int32 after complement).
type cpat struct {
	code [3]int32
}

// RowProgram is a set of triple patterns compiled once against a graph
// and a slot layout: variables become layout slots, IRI constants
// become TermIDs. The program is immutable after compilation and safe
// for concurrent use through per-goroutine RowSearchers.
type RowProgram struct {
	g      *rdf.Graph
	pats   []cpat
	width  int  // minimum row length: 1 + highest slot referenced
	absent bool // some constant is not in g: no matches
	// src keeps the source patterns of an absent program, whose
	// constants have no TermID to render from (code ^0 stands in).
	src []rdf.Triple

	// Join order for ModeStrict and Explain, built on the first Plan()
	// call once PlanLazily has recorded the entry slots (BuildPlan does
	// both at once; see planner.go). Ordered executions never read it,
	// so a program that only streams rows never plans. nil for programs
	// compiled without planning or with nothing to plan.
	plannable bool
	entry     []int32
	planOnce  sync.Once
	plan      *plan.Plan

	// Pushed filter conjuncts; see filter.go. Immutable once the first
	// searcher is created.
	filters []progFilter
}

// CompileRowProgram compiles the patterns, interning their variables
// into the layout. Patterns whose constants are unknown to the graph's
// dictionary yield a program with no matches.
func CompileRowProgram(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout) *RowProgram {
	p := &RowProgram{g: g, pats: make([]cpat, len(pats))}
	dict := g.Dict()
	for pi, pat := range pats {
		for i, term := range pat.Terms() {
			if term.IsVar() {
				slot := layout.Intern(term.Value)
				if slot+1 > p.width {
					p.width = slot + 1
				}
				p.pats[pi].code[i] = int32(slot)
				continue
			}
			id, ok := dict.LookupIRI(term.Value)
			if !ok {
				p.absent = true
			}
			p.pats[pi].code[i] = ^int32(id)
		}
	}
	if p.absent {
		p.src = slices.Clone(pats)
	}
	return p
}

// Width returns the minimum row length the program's Run accepts.
func (p *RowProgram) Width() int { return p.width }

// MarkSlots sets bit s of the bitset for every slot s the program's
// patterns reference; the bitset must hold Width() bits.
func (p *RowProgram) MarkSlots(bits []uint64) {
	for i := range p.pats {
		for _, c := range p.pats[i].code {
			if c >= 0 {
				bits[c/64] |= 1 << (c % 64)
			}
		}
	}
}

// RowSearcher carries the mutable scratch of one search over a
// RowProgram (pattern done-flags, the selection-count memo and the
// filter counters). A searcher is not safe for concurrent use, but is
// reusable across any number of sequential Run calls; parallel
// enumeration gives each worker its own searcher over the shared
// program.
type RowSearcher struct {
	prog   *RowProgram
	done   []bool
	assign rdf.Row // the caller's row, during Run

	// Pattern-selection policy and its scratch; see planner.go.
	mode   SearchMode
	noMemo bool // benchmark knob: disable the memo
	// ticks counts the candidates the searcher has walked, for Watch's
	// poll; it shares mode's word, as noMemo does, which keeps the
	// searcher an execution allocates per node in its size class.
	ticks uint32
	plan  *plan.Plan // the program's plan, resolved by Tune for ModeStrict
	slack float64    // strict-mode divergence factor
	stats *SearchStats
	memo  []countMemo // per-pattern selection-count memo

	// Filter-pushdown scratch; nil when the program has no filters
	// (the search then pays nothing). See filter.go.
	fRemaining []int32   // per filter: slots still unbound
	fWatch     [][]int32 // per slot: indices of filters reading it

	// Work limit of the current Exists call (pointing at limBuf); nil
	// during a plain Run, so the enumeration paths pay one nil check per
	// search node and selection count.
	lim    *limiter
	limBuf limiter

	// The execution's Done channel, polled every pollEvery candidates
	// (ticks); see Watch.
	cancel <-chan struct{}
}

// ErrBudget is returned by RowSearcher.Exists when the search spent
// its probe budget without reaching a verdict.
var ErrBudget = errors.New("hom: search budget exhausted")

// limiter meters one Exists call in index probes, the unit of the
// pebble game's table: one per search node (its candidate lookup) and
// one per selection count the node evaluates (countOf, memo hit or
// not). The spend is thus a function of the program and the row alone,
// never of what a pooled searcher's memo remembers.
type limiter struct {
	ctx    context.Context
	budget int64 // ≤ 0: unlimited
	spent  int64
	err    error
}

// pollEvery is the work between two context polls: probe units under
// an Exists limiter, candidates under Watch (a power of two, so that
// poll is a mask test).
const pollEvery = 1024

// spend books one unit; false stops the search with l.err set.
func (l *limiter) spend() bool {
	l.spent++
	if l.budget > 0 && l.spent > l.budget {
		l.err = ErrBudget
		return false
	}
	if l.spent%pollEvery == 0 {
		l.err = l.ctx.Err()
	}
	return l.err == nil
}

// Exists reports whether some homomorphism of the program's patterns
// extends the partial row assign — the paper's (S, dom(µ)) →µ G with µ
// held by the row — spending at most budget probe units (≤ 0:
// unlimited; see limiter) and polling ctx every pollEvery units. spent
// is what the search booked, the refused unit included. err is nil on
// a verdict, ErrBudget when the budget ran out first, and ctx.Err()
// when the context ended the search; found is meaningful only when err
// is nil. assign is restored on return.
func (s *RowSearcher) Exists(ctx context.Context, assign rdf.Row, budget int64) (found bool, spent int64, err error) {
	s.limBuf = limiter{ctx: ctx, budget: budget}
	s.lim = &s.limBuf
	s.Run(assign, func() bool {
		found = true
		return false
	})
	s.lim = nil
	return found, s.limBuf.spent, s.limBuf.err
}

// Holds reports whether every pattern of the program is in the graph
// under the row, which must bind every slot the program references:
// the membership half of the wdEVAL decision (µ is a homomorphism from
// pat(Tµ) to G), as plain ID-triple probes.
func (p *RowProgram) Holds(row rdf.Row) bool {
	if p.absent {
		return len(p.pats) == 0
	}
	for i := range p.pats {
		var t rdf.IDTriple
		for pos, c := range p.pats[i].code {
			if c < 0 {
				t[pos] = rdf.TermID(^c)
			} else if t[pos] = row[c]; t[pos] == rdf.Unbound {
				return false
			}
		}
		if !p.g.ContainsID(t) {
			return false
		}
	}
	return true
}

// Watch makes every Run and RunOn of the searcher stop, as if yield had
// returned false, within pollEvery candidates of done closing. Every
// candidate the search walks counts — one that recurses, one a pushed
// filter rejects, one that does not match — so a search that never
// reaches an emit, a dead end under a deadline, still ends. The poll is
// the emit's non-blocking receive; a nil done (a context that cannot be
// cancelled) costs one nil check per candidate.
func (s *RowSearcher) Watch(done <-chan struct{}) { s.cancel = done }

// cancelled polls the watched channel.
func (s *RowSearcher) cancelled() bool {
	select {
	case <-s.cancel:
		return true
	default:
		return false
	}
}

// NewSearcher returns a fresh searcher for the program.
func (p *RowProgram) NewSearcher() *RowSearcher {
	s := &RowSearcher{
		prog:  p,
		done:  make([]bool, len(p.pats)),
		memo:  make([]countMemo, len(p.pats)),
		slack: float64(DefaultSlack),
	}
	s.initFilterScratch()
	return s
}

// Run enumerates all homomorphisms from the program's patterns into
// its graph that extend the partial row assign: slots already bound in
// assign are constants of the search, and every complete match is
// written into assign before yield is called (and undone afterwards,
// so assign is exactly restored when Run returns). yield must copy the
// row if it needs it beyond the call. Run reports whether the search
// ran to exhaustion; false means yield stopped it early, or the watched
// channel closed (Watch).
//
// An empty pattern set admits exactly the empty extension (one yield).
func (s *RowSearcher) Run(assign rdf.Row, yield func() bool) bool {
	p := s.prog
	if len(assign) < p.width {
		panic("hom: RowSearcher.Run: row narrower than the compiled program")
	}
	if p.absent && len(p.pats) > 0 {
		return true
	}
	if !s.seedFilters(assign) {
		return true // an entry-bound filter fails: empty stream
	}
	s.assign = assign
	ok := s.rec(len(p.pats), yield)
	s.assign = nil
	return ok
}

// substituteRow renders pattern i under the current row: bound slots
// and constants become IRI IDs, unbound slots become their per-slot
// variable IDs (repeated variables stay linked through the shared
// slot).
func (s *RowSearcher) substituteRow(i int) rdf.IDTriple {
	var out rdf.IDTriple
	cp := &s.prog.pats[i]
	for pos := 0; pos < 3; pos++ {
		c := cp.code[pos]
		if c < 0 {
			out[pos] = rdf.TermID(^c)
			continue
		}
		if v := s.assign[c]; v != rdf.Unbound {
			out[pos] = v
		} else {
			out[pos] = rdf.VarID(int(c))
		}
	}
	return out
}

// rec expands the remaining pattern with the fewest matches
// (fail-first), walks its candidates in storage order and binds the
// newly determined slots in place. A node's last pattern is the choice
// in every mode and is walked without a count probe: an empty candidate
// list yields nothing, which is all the dead check would do.
func (s *RowSearcher) rec(remaining int, yield func() bool) bool {
	if remaining == 0 {
		return yield()
	}
	if s.stats != nil {
		s.stats.Nodes++
	}
	if s.lim != nil && !s.lim.spend() {
		return false
	}
	var best int
	var bestPat rdf.IDTriple
	if remaining == 1 {
		best = slices.Index(s.done, false)
		bestPat = s.substituteRow(best)
	} else {
		var dead bool
		if best, bestPat, dead = s.pickPattern(); dead {
			// A dead branch, or a selection count the limiter refused.
			return s.lim == nil || s.lim.err == nil
		}
	}
	s.done[best] = true
	// The delta tier's and the overlay's segments (nil without them)
	// continue the base's in insertion order.
	base, delta, tail := s.prog.g.LookupSegmentsID(bestPat)
	exact := rdf.ExactPattern(bestPat)
	cancel := s.cancel != nil
	for _, seg := range [3][]rdf.IDTriple{base, delta, tail} {
		for _, t := range seg {
			if cancel {
				if s.ticks++; s.ticks%pollEvery == 0 && s.cancelled() {
					s.done[best] = false
					return false
				}
			}
			if !exact && !rdf.MatchesPatternID(bestPat, t) {
				continue
			}
			if !s.bindAndRec(best, t, remaining, yield) {
				s.done[best] = false
				return false
			}
		}
	}
	s.done[best] = false
	return true
}

// pickPattern chooses the remaining pattern to expand under the
// searcher's mode (see planner.go for the mode contract). The default
// is fail-first: fewest matches under the current row, first such
// pattern on ties — the deterministic branch decision every split of
// the same search state reproduces (SplitTop and RunOn rely on
// exactly that). dead reports that a probed pattern has no matches at
// all, pruning the whole branch. The early break on a count-1 pattern
// is sound for the choice (1 is the global minimum on a live branch)
// but blind to later zero-count patterns; ModePlanned trades the
// break for complete dead detection.
func (s *RowSearcher) pickPattern() (best int, bestPat rdf.IDTriple, dead bool) {
	switch s.mode {
	case ModePlanned:
		return s.pickScored()
	case ModeStrict:
		return s.pickStrict()
	}
	best, bestCount := -1, -1
	for i := range s.prog.pats {
		if s.done[i] {
			continue
		}
		c, p := s.countOf(i)
		if c == 0 {
			return -1, rdf.IDTriple{}, true
		}
		if best == -1 || c < bestCount {
			best, bestCount, bestPat = i, c, p
			if c == 1 {
				break
			}
		}
	}
	return best, bestPat, false
}

// bindAndRec binds the fresh slots of pattern best to the candidate
// triple t, recurses into the remaining patterns, and restores the row
// on the way out. A pushed filter whose last slot binds here is
// evaluated immediately; anything but true prunes the subtree below
// this candidate (the recursion is skipped, the binding undone, and the
// sibling candidates continue — a pure subsequence of the unfiltered
// exploration).
func (s *RowSearcher) bindAndRec(best int, t rdf.IDTriple, remaining int, yield func() bool) bool {
	cp := &s.prog.pats[best]
	var newSlots [3]int32
	n := 0
	pruned := false
	for pos := 0; pos < 3; pos++ {
		c := cp.code[pos]
		if c >= 0 && s.assign[c] == rdf.Unbound {
			s.assign[c] = t[pos]
			newSlots[n] = c
			n++
			if s.fWatch != nil {
				for _, fi := range s.fWatch[c] {
					s.fRemaining[fi]--
					if !pruned && s.fRemaining[fi] == 0 && s.prog.filters[fi].expr.Eval(s.assign) != TriTrue {
						pruned = true
					}
				}
			}
		}
	}
	more := true
	if !pruned {
		more = s.rec(remaining-1, yield)
	} else if s.stats != nil {
		s.stats.FilterPruned++
	}
	for j := 0; j < n; j++ {
		c := newSlots[j]
		s.assign[c] = rdf.Unbound
		if s.fWatch != nil {
			for _, fi := range s.fWatch[c] {
				s.fRemaining[fi]++
			}
		}
	}
	return more
}

// SplitTop computes the top-level branch point of the search over the
// partial row assign: the candidate triples of the fail-first-chosen
// first pattern, in exactly the order Run would explore them. When ok,
// Run(assign)'s stream is precisely the concatenation of
// RunOn(assign, c) over the returned candidates in order — the seam
// the parallel enumeration uses to partition root work by data. Zero
// candidates with ok=true means the
// stream is empty. ok=false means the search has no top-level branch
// point — the program has no patterns, so Run yields exactly the empty
// extension — and the caller must fall back to Run. The returned slice
// may alias graph storage and must not be modified; assign is read, not
// written.
func (s *RowSearcher) SplitTop(assign rdf.Row) ([]rdf.IDTriple, bool) {
	p := s.prog
	if len(assign) < p.width {
		panic("hom: RowSearcher.SplitTop: row narrower than the compiled program")
	}
	if len(p.pats) == 0 {
		return nil, false
	}
	if p.absent {
		return nil, true // no matches: an empty stream, zero work items
	}
	if !s.seedFilters(assign) {
		return nil, true // an entry-bound filter fails: empty stream
	}
	s.assign = assign
	_, bestPat, dead := s.pickPattern()
	s.assign = nil
	if dead {
		return nil, true
	}
	raw, exact := p.g.LookupRangeID(bestPat)
	if exact {
		return raw, true
	}
	var out []rdf.IDTriple
	for _, t := range raw {
		if rdf.MatchesPatternID(bestPat, t) {
			out = append(out, t)
		}
	}
	return out, true
}

// RunOn is Run with the top-level choice pinned to the candidate t,
// which must come from SplitTop(assign): it re-derives the same
// fail-first pattern choice (deterministic over the immutable graph),
// binds t's fresh slots, and enumerates the remaining patterns'
// extensions. The contract matches Run: every complete match is
// written into assign before yield and undone afterwards, and the
// return value reports exhaustion.
func (s *RowSearcher) RunOn(assign rdf.Row, t rdf.IDTriple, yield func() bool) bool {
	p := s.prog
	if len(assign) < p.width {
		panic("hom: RowSearcher.RunOn: row narrower than the compiled program")
	}
	if len(p.pats) == 0 || p.absent {
		return true
	}
	if !s.seedFilters(assign) {
		return true // an entry-bound filter fails: empty stream
	}
	s.assign = assign
	best, _, dead := s.pickPattern()
	ok := true
	if !dead {
		s.done[best] = true
		ok = s.bindAndRec(best, t, len(p.pats), yield)
		s.done[best] = false
	}
	s.assign = nil
	return ok
}

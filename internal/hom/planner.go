package hom

// Planner integration: the join order (internal/plan), built on a
// program's first ModeStrict execution or Explain, threaded into the
// row-native searcher, plus the runtime policies that consume it.
//
// The determinism contract is the heart of this file. The engine-wide
// invariant — every backend, every execution strategy yields the same
// row stream, content AND order — extends to the planner: turning it
// on or off must be unobservable in any ordered stream. Literally
// following a precomputed pattern order cannot satisfy that (swapping
// the nesting order of two patterns with disjoint variables permutes
// the emitted rows), so the searcher offers three modes:
//
//   - ModeHeuristic: the original per-node fail-first scan, byte
//     identical to the pre-planner engine. The memo below makes it
//     cheaper without changing a single choice.
//   - ModePlanned: same fail-first argmin, but the scan always covers
//     every remaining pattern instead of stopping at the first
//     count-1 pattern. On live branches every count is ≥ 1, and 1 is
//     the global minimum, so the first count-1 pattern in index order
//     IS the argmin under the lowest-index tie-break — the chosen
//     pattern is identical to ModeHeuristic at every live node, and
//     the yielded stream is byte-identical by construction. What the
//     full scan adds is complete dead detection: the heuristic's
//     early break can miss a remaining pattern whose count is already
//     zero and descend into a doomed (row-less) subtree; ModePlanned
//     prunes it at the parent. Nodes visited: planned ≤ heuristic,
//     streams equal. This is the mode ordered executions run with
//     when the planner is on.
//   - ModeStrict: follow the compiled plan order literally — one
//     memoized count probe per node (the chosen pattern's, which
//     doubles as the dead check) instead of a scan over all remaining
//     patterns, with an adaptive escape hatch: when the actual count
//     exceeds the plan's estimate by more than the slack factor, the
//     node falls back to the full fail-first re-score, so
//     pathological estimates keep today's behaviour. Strict mode may
//     reorder the emitted rows, so the engine uses it only for
//     order-free executions (Count), where the result — a cardinality
//     over a content-keyed solution set — is invariant under
//     enumeration order, including Limit/Offset windowing
//     (min(limit, max(0, total-offset)) does not depend on which rows
//     fill the window).
//
// The modes differ only at nodes with two or more patterns left: a
// node's last pattern is the choice in every mode and rec walks it
// without a probe. All three modes pick deterministically (index
// order scans, plan order, no map iteration), so SplitTop/RunOn
// re-derive the same choice on every split — provided one execution
// uses one mode for all its searchers, which the core enumeration
// guarantees.

import (
	"fmt"
	"strings"

	"wdsparql/internal/plan"
	"wdsparql/internal/rdf"
)

// SearchMode selects the pattern-selection policy of a RowSearcher.
// The zero value is the pre-planner heuristic.
type SearchMode uint8

const (
	// ModeHeuristic is the per-node fail-first scan with the early
	// break on count-1 patterns — the engine's original policy.
	ModeHeuristic SearchMode = iota
	// ModePlanned is fail-first with complete dead detection; stream
	// byte-identical to ModeHeuristic, nodes visited ≤.
	ModePlanned
	// ModeStrict follows the compiled plan order with one count probe
	// per node and the adaptive escape hatch; volatile (cyclic) plans
	// keep the full re-score (see plan.Plan.Volatile). Order-free
	// executions only.
	ModeStrict
)

// DefaultSlack is the strict-mode divergence factor: a node re-scores
// when the actual candidate count exceeds slack × max(1, estimate).
const DefaultSlack = 16

// SearchStats aggregates search-effort counters across the Run calls
// of the searchers it is attached to (see RowSearcher.Tune). Counters
// are plain ints: attach stats to sequential executions only.
type SearchStats struct {
	Nodes        int64 // search nodes expanded (rec calls below the root)
	CountProbes  int64 // MatchCountID probes issued by pattern selection
	MemoHits     int64 // selection counts served from the memo
	Rescored     int64 // strict-mode nodes that fell back to a full re-score
	FilterPruned int64 // candidate bindings cut by a pushed filter before recursion
}

// countMemo caches the last selection count of one pattern, keyed on
// the substituted pattern itself (bound-slot mask plus values — two
// nodes that substitute the pattern identically share the count). The
// graph is immutable for the searcher's lifetime, so entries never
// expire.
type countMemo struct {
	pat   rdf.IDTriple
	count int
	ok    bool
}

// Tune sets the searcher's pattern-selection mode, strict-mode slack
// factor (≤ 0 selects DefaultSlack) and optional effort counters.
// Must be called before Run/SplitTop/RunOn; a zero-value searcher runs
// ModeHeuristic with no stats. ModeStrict resolves the program's plan
// here — building it on the program's first strict execution — so the
// search nodes read a plain field.
func (s *RowSearcher) Tune(mode SearchMode, slack int, stats *SearchStats) {
	s.mode = mode
	s.plan = nil
	if mode == ModeStrict {
		s.plan = s.prog.Plan()
	}
	if slack <= 0 {
		slack = DefaultSlack
	}
	s.slack = float64(slack)
	s.stats = stats
}

// countOf renders pattern i under the current row and returns its
// match count, memoized on the substituted pattern. Under an Exists
// limiter every call books one unit, memo hit or not; a refused unit
// reads as a zero count, and rec then reports the limiter's stop.
func (s *RowSearcher) countOf(i int) (int, rdf.IDTriple) {
	if s.lim != nil && !s.lim.spend() {
		return 0, rdf.IDTriple{}
	}
	p := s.substituteRow(i)
	if !s.noMemo {
		if m := &s.memo[i]; m.ok && m.pat == p {
			if s.stats != nil {
				s.stats.MemoHits++
			}
			return m.count, p
		}
	}
	c := s.prog.g.MatchCountID(p)
	if !s.noMemo {
		s.memo[i] = countMemo{pat: p, count: c, ok: true}
	}
	if s.stats != nil {
		s.stats.CountProbes++
	}
	return c, p
}

// pickScored is the fail-first argmin over every remaining pattern
// (lowest index wins ties) with complete dead detection — ModePlanned,
// and the strict mode's escape hatch.
func (s *RowSearcher) pickScored() (best int, bestPat rdf.IDTriple, dead bool) {
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
		}
	}
	return best, bestPat, false
}

// pickStrict follows the plan order: the first remaining pattern in
// the compiled order is the choice, its (memoized) count the dead
// check, and the plan's estimate the divergence baseline. Programs
// compiled without a plan fall back to the full re-score, and so do
// volatile (cyclic) plans: there a branch can die on a pattern the
// static order reaches late, so the single-probe dead check would
// expand doomed subtrees the scan prunes at the parent — the planner
// decides at compile time that full re-scoring is the cheaper policy.
func (s *RowSearcher) pickStrict() (int, rdf.IDTriple, bool) {
	pl := s.plan
	if pl == nil || pl.Volatile() {
		return s.pickScored()
	}
	for _, i := range pl.Order() {
		if s.done[i] {
			continue
		}
		c, p := s.countOf(i)
		if c == 0 {
			return -1, rdf.IDTriple{}, true
		}
		if float64(c) > s.slack*max(1, pl.Est(i)) {
			if s.stats != nil {
				s.stats.Rescored++
			}
			return s.pickScored()
		}
		return i, p, false
	}
	return -1, rdf.IDTriple{}, true // rec stops at remaining==0 first
}

// CompileRowProgramPlanned compiles the patterns like CompileRowProgram
// and additionally builds the join order off the graph's selectivity
// catalog (BuildPlan). entry lists the layout slots that are bound
// before any search of this program starts (the ancestor variables of
// a wdPT node); the planner costs patterns touching them as
// pre-bound. Programs with an absent constant skip planning — they
// have no matches to order.
func CompileRowProgramPlanned(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout, entry []int32) *RowProgram {
	p := CompileRowProgram(pats, g, layout)
	p.BuildPlan(entry)
	return p
}

// PlanLazily records the slots bound before any search of the program
// starts, and defers planning to the first Plan call: the join order is
// then built exactly once, under a sync.Once, however many executions
// race for it. Must be called after every AttachFilter and before the
// first Plan; entry must not be modified afterwards.
func (p *RowProgram) PlanLazily(entry []int32) {
	p.plannable, p.entry = true, entry
}

// BuildPlan is PlanLazily followed by Plan: the join order is built now.
func (p *RowProgram) BuildPlan(entry []int32) {
	p.PlanLazily(entry)
	p.Plan()
}

// Plan returns the join order, building it on first call; nil when the
// program was compiled without planning (or has nothing to plan).
func (p *RowProgram) Plan() *plan.Plan {
	p.planOnce.Do(p.buildPlan)
	return p.plan
}

// buildPlan orders the patterns off the graph's selectivity catalog,
// with the entry slots and the slots an attached equality filter pins
// costed as bound.
func (p *RowProgram) buildPlan() {
	if !p.plannable || p.absent || len(p.pats) == 0 {
		return
	}
	pp := make([]plan.Pattern, len(p.pats))
	for i, cp := range p.pats {
		pp[i] = plan.Pattern{Code: cp.code}
	}
	p.plan = plan.CompileWithRestrictions(pp, p.g, p.entry, p.restrictedSlots())
}

// NumPatterns returns the number of compiled patterns.
func (p *RowProgram) NumPatterns() int { return len(p.pats) }

// RenderPattern renders compiled pattern i back to SPARQL-ish text
// ("?x <knows> ?y") for explain output. Constants of a program with an
// absent constant render from the source pattern: only present
// constants have a TermID.
func (p *RowProgram) RenderPattern(i int, layout *rdf.SlotLayout) string {
	dict := p.g.Dict()
	var b strings.Builder
	for pos, c := range p.pats[i].code {
		if pos > 0 {
			b.WriteByte(' ')
		}
		switch {
		case c >= 0:
			fmt.Fprintf(&b, "?%s", layout.Name(int(c)))
		case p.src != nil:
			b.WriteString(p.src[i].Terms()[pos].Value)
		default:
			b.WriteString(dict.StringOf(rdf.TermID(^c)))
		}
	}
	return b.String()
}

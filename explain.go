package wdsparql

// Explain: the observability surface of the join-order query planner.
// A prepared query can dump, as plain JSON-taggable structs, the
// pattern order the planner chose per wdPT node, the per-step
// cardinality estimates it chose them by, and the index shape each
// step probes. wdsparql -explain and wdserve's /sparql?explain=1 both
// serialise exactly this.

import (
	"fmt"

	"wdsparql/internal/core"
)

// PlanStep is one step of a node's planned pattern order.
type PlanStep struct {
	// Pattern is the triple pattern in SPARQL-ish text.
	Pattern string `json:"pattern"`
	// Index is the pattern's position in the node's original list.
	Index int `json:"index"`
	// Est is the planner's cardinality estimate for this step given
	// the slots bound by earlier steps and ancestor nodes.
	Est float64 `json:"est"`
	// Base is the exact posting-list cardinality of the pattern's
	// constants-only skeleton, straight off the CSR offsets.
	Base int `json:"base"`
	// Side names the index shape probed once the promised slots are
	// bound: the bound positions among "S", "P", "O", or "scan".
	Side string `json:"side"`
}

// PlanNode is the plan of one wdPT node: its patterns in source order,
// the node's FILTER conjuncts (each marked [pushed] — evaluated at bind
// time inside the node's search — or [deferred] — evaluated per emitted
// subtree solution), plus the planned execution order.
type PlanNode struct {
	Patterns []string    `json:"patterns"`
	Filters  []string    `json:"filters,omitempty"`
	Order    []PlanStep  `json:"order,omitempty"`
	Children []*PlanNode `json:"children,omitempty"`
}

// QueryPlan is the full explain output of a prepared query: one plan
// tree per tree of the wdPF, the SELECT projection if any, the
// cross-tree dedup of a UNION, plus whether the engine executes with
// the planner on.
type QueryPlan struct {
	Planner bool `json:"planner"`
	// Template is the template key the query was prepared under: the
	// text with its constants lifted to parameters ">0", ">1", … (see
	// Engine.PrepareText), the text itself when none was lifted.
	// Omitted for queries prepared from a Pattern or a Forest.
	Template string `json:"template,omitempty"`
	// Projection lists the projected variables in declared order;
	// empty for a bare pattern (and for SELECT *, which projects
	// nothing away). Distinct reports output dedup on the projected
	// row.
	Projection []string `json:"projection,omitempty"`
	Distinct   bool     `json:"distinct,omitempty"`
	// Dedup says how rows that several UNION arms answer are dropped:
	// "membership" (a row of arm j is tested for membership in each
	// earlier arm's answer), "set" (a set of the rows already emitted,
	// kept for arms carrying a FILTER) or "distinct" (DISTINCT's set of
	// projected rows). Omitted for a UNION-free query.
	Dedup string      `json:"dedup,omitempty"`
	Trees []*PlanNode `json:"trees"`
	// Ask describes how PreparedQuery.Ask decides membership.
	Ask *AskPlan `json:"ask"`
}

// AskCounters are the decision loop's counters: extension tests run,
// homomorphism searches stopped by their budget, tests then decided by
// the pebble game, and partial assignments pebble closures enumerated.
type AskCounters = core.EvalStats

// AskPlan is the ask section of a QueryPlan: the algorithm, what it
// knows of dw(P), the running counters, and one entry per dom(µ) Ask
// has compiled a decision plan for so far.
type AskPlan struct {
	// Algorithm is "auto", "naive" or "pebble" — or "scan" for queries
	// carrying a FILTER or a projection, which Ask answers by a
	// membership scan over the row stream.
	Algorithm string `json:"algorithm"`
	// PebbleK is WithPebbleK's bound, for the pebble algorithm only.
	PebbleK int `json:"pebble_k,omitempty"`
	// Width is dw(P) once the default algorithm has consulted it;
	// WidthNote says why it has not.
	Width     int         `json:"dw,omitempty"`
	WidthNote string      `json:"dw_note,omitempty"`
	Counters  AskCounters `json:"counters"`
	Domains   []AskDomain `json:"domains,omitempty"`
	// Error is the error every Ask returns on a misconfigured engine
	// (the pebble algorithm with WithPebbleK below 1).
	Error string `json:"error,omitempty"`
}

// AskDomain is the cached decision plan of one dom(µ): per tree with a
// witness subtree, its child-extension tests in the order they run.
type AskDomain struct {
	Vars  []string  `json:"vars"`
	Tests []AskTest `json:"tests"`
}

// AskTest is one child-extension test with its share of the counters
// (PebbleFallbacks > 0 marks a test that fell back to the pebble game).
type AskTest struct {
	Tree     int    `json:"tree"`
	Child    string `json:"child"`
	FreeVars int    `json:"free_vars"`
	AskCounters
	// Note says why the test has no pebble form, when it has none.
	Note string `json:"note,omitempty"`
}

// Explain returns the query plan of the prepared query; the join
// orders are built by the first Count or Explain, whichever comes
// first, and are the same either way. The plan is purely
// informational: executions with the planner off (or with the Planner
// ExecOption) yield the identical row stream.
func (q *PreparedQuery) Explain() *QueryPlan {
	qp := &QueryPlan{
		Planner:    q.eng.planner,
		Template:   q.key,
		Projection: q.prog.OutputVars(),
		Distinct:   q.prog.Distinct(),
		Dedup:      q.prog.Dedup(),
	}
	for _, en := range q.prog.Explain() {
		qp.Trees = append(qp.Trees, planNodeOf(en))
	}
	qp.Ask = q.askPlan()
	return qp
}

func (q *PreparedQuery) askPlan() *AskPlan {
	if err := q.eng.askErr(); err != nil {
		return &AskPlan{Algorithm: q.eng.alg.String(), PebbleK: q.eng.pebbleK, Error: err.Error()}
	}
	if q.prog.Projected() || q.an.forest.HasFilters() {
		return &AskPlan{Algorithm: "scan"}
	}
	ev := q.evaluator()
	ap := &AskPlan{Algorithm: q.eng.alg.String()}
	switch w := ev.Width(); {
	case q.eng.alg == AlgPebble:
		ap.PebbleK = q.eng.pebbleK
	case q.eng.alg != AlgAuto:
	case w > 0:
		ap.Width = w
	case w < 0:
		ap.WidthNote = fmt.Sprintf("skipped: the forest has more than %d subtrees", core.MaxWidthSubtrees)
	default:
		ap.WidthNote = "not consulted: no homomorphism search has exhausted its budget"
	}
	last := -1
	for _, t := range ev.Tests() {
		if t.Plan != last { // tests arrive grouped by plan
			last = t.Plan
			ap.Domains = append(ap.Domains, AskDomain{Vars: t.Dom})
		}
		at := AskTest{Tree: t.Tree, Child: t.Child.String(), FreeVars: t.FreeVars, AskCounters: t.Stats}
		if t.NoGame != nil {
			at.Note = t.NoGame.Error()
		}
		d := &ap.Domains[len(ap.Domains)-1]
		d.Tests = append(d.Tests, at)
		ap.Counters.Add(t.Stats)
	}
	return ap
}

func planNodeOf(en *core.ExplainNode) *PlanNode {
	pn := &PlanNode{Patterns: en.Patterns, Filters: en.Filters}
	for _, st := range en.Order {
		pn.Order = append(pn.Order, PlanStep{
			Pattern: st.Pattern, Index: st.Index, Est: st.Est, Base: st.Base, Side: st.Side,
		})
	}
	for _, c := range en.Children {
		pn.Children = append(pn.Children, planNodeOf(c))
	}
	return pn
}

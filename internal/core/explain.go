package core

import "wdsparql/internal/hom"

// Explain renders a compiled forest's query plans for observability:
// one node per wdPT node, carrying the node's patterns in compiled
// (original) order plus the planner's chosen execution order with
// per-step cardinality estimates and probe sides. The structs are
// plain data with JSON tags so every surface (PreparedQuery.Explain,
// wdsparql -explain, wdserve ?explain=1) serialises them unchanged.

// ExplainStep is one step of a node's planned pattern order.
type ExplainStep struct {
	// Pattern is the triple pattern in SPARQL-ish text.
	Pattern string `json:"pattern"`
	// Index is the pattern's position in the node's original list.
	Index int `json:"index"`
	// Est is the planner's cardinality estimate for this step, given
	// the slots bound by earlier steps and ancestor nodes.
	Est float64 `json:"est"`
	// Base is the exact posting-list cardinality of the pattern's
	// constants-only skeleton.
	Base int `json:"base"`
	// Side names the index shape probed once the promised slots are
	// bound ("SP", "PO", ..., "scan").
	Side string `json:"side"`
}

// ExplainNode is one wdPT node of the explain tree.
type ExplainNode struct {
	Patterns []string `json:"patterns"`
	// Filters renders the node's FILTER conjuncts, each marked
	// [pushed] (evaluated inside the node's search, pruning at bind
	// time) or [deferred] (evaluated per emitted subtree solution).
	Filters  []string       `json:"filters,omitempty"`
	Order    []ExplainStep  `json:"order,omitempty"`
	Children []*ExplainNode `json:"children,omitempty"`
}

// Explain returns the plan trees of the compiled forest, one per tree
// root, in forest order.
func (fp *ForestProgram) Explain() []*ExplainNode {
	out := make([]*ExplainNode, 0, len(fp.roots))
	for _, r := range fp.roots {
		out = append(out, fp.explainNode(r))
	}
	return out
}

func (fp *ForestProgram) explainNode(cn *compiledNode) *ExplainNode {
	en := &ExplainNode{}
	for i := 0; i < cn.prog.NumPatterns(); i++ {
		en.Patterns = append(en.Patterns, cn.prog.RenderPattern(i, fp.layout))
	}
	en.Filters = append(en.Filters, cn.filterNotes...)
	if pl := cn.prog.Plan(); pl != nil {
		for _, st := range pl.Steps {
			en.Order = append(en.Order, ExplainStep{
				Pattern: cn.prog.RenderPattern(st.Pat, fp.layout),
				Index:   st.Pat,
				Est:     st.Est,
				Base:    st.Base,
				Side:    st.Side,
			})
		}
	}
	for _, c := range cn.children {
		en.Children = append(en.Children, fp.explainNode(c))
	}
	return en
}

// TestInfo describes one extension test of a cached decision plan:
// the plan (by creation index), dom(µ) and tree it belongs to, the
// child it tests, its share of the decision loop's counters, and why it
// has no pebble form (nil when it has one).
type TestInfo struct {
	Plan     int
	Dom      []string
	Tree     int
	Child    hom.TGraph
	FreeVars int
	Stats    EvalStats
	NoGame   error
}

// Tests lists the extension tests of every plan the evaluator has
// cached, plans in creation order and tests in the order they run.
func (e *Evaluator) Tests() []TestInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []TestInfo
	for pi, p := range e.order {
		for i, tp := range p.trees {
			for _, t := range tp.tests {
				ti := TestInfo{Plan: pi, Dom: p.vars, Tree: i, Child: t.node.node.Pattern, FreeVars: t.node.free,
					Stats: EvalStats{
						ExtensionTests:    t.runs.Load(),
						BudgetExhaustions: t.exhaustions.Load(),
						PebbleFallbacks:   t.fallbacks.Load(),
						SearchProbes:      t.probes.Load(),
						PebbleAssignments: t.assignments.Load(),
					}}
				if e.alg != AlgNaive { // naive plans skip the game; another view may be compiling it
					ti.NoGame = t.node.gameErr
				}
				out = append(out, ti)
			}
		}
	}
	return out
}

// Width reports what AlgAuto knows of dw(F): the width once a budget
// exhaustion made it consult it, 0 before, -1 when the forest has more
// than MaxWidthSubtrees subtrees and the computation was skipped.
func (e *Evaluator) Width() int {
	k := int(e.pebbles.Load())
	if k > 0 {
		k-- // pebbles holds dw+1
	}
	return k
}

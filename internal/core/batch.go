package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"wdsparql/internal/hom"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// This file is the wdEVAL decision loop: deciding µ ∈ ⟦F⟧G, for one
// mapping or many, against one graph. Everything structural depends
// only on dom(µ), not on µ itself — the witness subtree per tree, its
// membership checks, the extension tests of its children and their
// order — and candidate mappings in a workload overwhelmingly share a
// domain (they come from matching the same subquery), so an Evaluator
// builds one decision plan per distinct domain and reuses it for every
// mapping, optionally across a worker pool.

// slotSet is a bitset over the slots of a layout.
type slotSet []uint64

func newSlotSet(width int) slotSet { return make(slotSet, (width+63)/64) }

func (s slotSet) add(slot int) { s[slot/64] |= 1 << (slot % 64) }

func (s slotSet) subsetOf(t slotSet) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

// Evaluator is the wdEVAL view of a compiled forest: its decision plans
// select the ForestProgram's node programs and compile nothing. It is
// safe for concurrent use: the program is only read, the per-domain
// plan cache is lock-protected, and every call draws its scratch from
// pools.
type Evaluator struct {
	alg Algorithm
	k   int
	fp  *ForestProgram // the trees decided: the forest, or one of its trees
	dw  func() int     // their width, computed at most once, on demand

	widthOnce sync.Once
	pebbles   atomic.Int32 // AlgAuto: dw+1 once consulted, -1 when guarded off, 0 before

	mu    sync.Mutex
	plans map[string]*domainPlan
	order []*domainPlan // creation order, for Explain

	rows sync.Pool // *rdf.Row of the forest layout's width: µ encoded, per call
}

// domainPlan is the decision plan of one dom(µ).
type domainPlan struct {
	vars  []string
	trees []treePlan
}

// treePlan is the domain-dependent (µ-independent) part of deciding
// one tree of the forest.
type treePlan struct {
	// witness holds the nodes of Tµ, the subtree with vars(Tµ) = dom(µ),
	// root first; nil when the tree has none.
	witness []*compiledNode
	tests   []*childTest // one per child of Tµ, cheapest first
}

// childTest is the extension test of one child n of Tµ. By
// well-designedness vars(n) ∩ vars(Tµ) = vars(n) ∩ vars(ancestors of n),
// so it is n's node program run on µ, and its relaxation n's game.
type childTest struct {
	node      *compiledNode
	searchers sync.Pool // *hom.RowSearcher

	// The decision loop's counters, kept where the work happens; see
	// EvalStats for their meaning.
	runs, exhaustions, fallbacks, probes, assignments atomic.Int64
}

// EvalStats counts the work of the decision loop, per extension test or
// summed over an evaluator.
type EvalStats struct {
	// ExtensionTests counts child-extension tests run, whichever way.
	ExtensionTests int64 `json:"extension_tests"`
	// BudgetExhaustions counts homomorphism searches stopped by their
	// budget; PebbleFallbacks those then decided by the pebble game (the
	// difference re-ran under the larger budget of a width above 1).
	BudgetExhaustions int64 `json:"budget_exhaustions"`
	PebbleFallbacks   int64 `json:"pebble_fallbacks"`
	// SearchProbes accumulates the probe units homomorphism searches
	// spent (hom.RowSearcher.Exists: one per search node, one per
	// selection count), and PebbleAssignments the partial assignments
	// pebble closures enumerated: the two sides of the mixture, each in
	// its own index-probe currency.
	SearchProbes      int64 `json:"search_probes"`
	PebbleAssignments int64 `json:"pebble_assignments"`
}

// Add accumulates o into s.
func (s *EvalStats) Add(o EvalStats) {
	s.ExtensionTests += o.ExtensionTests
	s.BudgetExhaustions += o.BudgetExhaustions
	s.PebbleFallbacks += o.PebbleFallbacks
	s.SearchProbes += o.SearchProbes
	s.PebbleAssignments += o.PebbleAssignments
}

// MaxWidthSubtrees guards the width computation AlgAuto may trigger:
// DominationWidth enumerates every subtree of the forest and every
// children assignment of each, so beyond this many subtrees the
// evaluator keeps the natural algorithm instead of paying for dw(F).
const MaxWidthSubtrees = 256

// NewEvaluator returns the decision view of fp with the given
// algorithm; k is the domination-width bound used by AlgPebble (k ≥ 1)
// and ignored otherwise. Decisions are filter-blind: fp must carry no
// pushed FILTER (see NoFilterPushdown).
func NewEvaluator(alg Algorithm, k int, fp *ForestProgram) *Evaluator {
	if alg == AlgPebble && k < 1 {
		panic(fmt.Sprintf("core: NewEvaluator with AlgPebble requires k ≥ 1, got %d", k))
	}
	return newView(alg, k, fp)
}

func newView(alg Algorithm, k int, fp *ForestProgram) *Evaluator {
	e := &Evaluator{alg: alg, k: k, fp: fp, plans: map[string]*domainPlan{}}
	e.dw = func() int { return DominationWidth(fp.forest) }
	e.rows.New = func() any { r := fp.layout.NewRow(); return &r }
	return e
}

// UseWidth makes the evaluator read dw(F) from dw — a cached
// computation shared with the caller — instead of computing it itself.
// Call before the first Decide.
func (e *Evaluator) UseWidth(dw func() int) { e.dw = dw }

// encode writes µ into row; false when µ binds a variable the forest
// lacks or a value G lacks, so µ ∉ ⟦F⟧G.
func (e *Evaluator) encode(mu rdf.Mapping, row rdf.Row) bool {
	e.fp.layout.Reset(row)
	for name, val := range mu {
		slot, ok := e.fp.layout.Slot(name)
		if !ok {
			return false
		}
		if row[slot], ok = e.fp.g.Dict().LookupIRI(val); !ok {
			return false
		}
	}
	return true
}

// planOf returns (building if needed) the plan of the row's domain.
func (e *Evaluator) planOf(row rdf.Row) *domainPlan {
	// The key is the bound slots in ascending order; the map lookup does
	// not allocate, the key string is materialised on the build path.
	var buf [64]byte
	key := buf[:0]
	for slot, v := range row {
		if v != rdf.Unbound {
			key = rdf.AppendIDLE(key, rdf.TermID(slot))
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.plans[string(key)]
	if !ok {
		p = e.buildPlan(row)
		e.plans[string(key)] = p
		e.order = append(e.order, p)
	}
	return p
}

func (e *Evaluator) buildPlan(row rdf.Row) *domainPlan {
	p := &domainPlan{trees: make([]treePlan, len(e.fp.roots))}
	dom := newSlotSet(len(row))
	for slot, v := range row {
		if v != rdf.Unbound {
			p.vars = append(p.vars, e.fp.layout.Name(slot))
			dom.add(slot)
		}
	}
	for i, root := range e.fp.roots {
		if root.slots.subsetOf(dom) {
			p.trees[i] = e.treePlan(root, dom)
		}
	}
	return p
}

// treePlan finds the witness subtree of dom(µ) below root — the nodes
// reached through nodes whose variables dom(µ) covers, the unique
// subtree with vars(Tµ) = dom(µ) in NR normal form if their variables
// are all of dom(µ) — and lists its children's tests.
func (e *Evaluator) treePlan(root *compiledNode, dom slotSet) treePlan {
	covered := make(slotSet, len(dom))
	tp := treePlan{witness: []*compiledNode{root}}
	for q := 0; q < len(tp.witness); q++ { // breadth first: tests in child order
		n := tp.witness[q]
		n.prog.MarkSlots(covered)
		for _, c := range n.children {
			if c.slots.subsetOf(dom) {
				tp.witness = append(tp.witness, c)
			} else {
				tp.tests = append(tp.tests, &childTest{node: c})
			}
		}
	}
	if !dom.subsetOf(covered) {
		return treePlan{}
	}
	// Any one extending child rejects the tree, so run the tests most
	// likely to be cheap first: fewest free variables, then fewest
	// triples (ties keep child order).
	sort.SliceStable(tp.tests, func(a, b int) bool {
		na, nb := tp.tests[a].node, tp.tests[b].node
		if na.free != nb.free {
			return na.free < nb.free
		}
		return na.prog.NumPatterns() < nb.prog.NumPatterns()
	})
	if e.alg != AlgNaive {
		for _, t := range tp.tests {
			t.node.compileGame(e.fp)
		}
	}
	return tp
}

// Decide reports whether µ ∈ ⟦F⟧G. The context is polled between trees,
// inside every homomorphism search and inside every pebble closure; a
// cancelled context yields (false, ctx.Err()). The only other error is
// pebble.ErrTooLarge, under AlgPebble, for a test the pebble kernel
// cannot represent (AlgAuto stays on the natural search for such a
// test).
func (e *Evaluator) Decide(ctx context.Context, mu rdf.Mapping) (bool, error) {
	rp := e.rows.Get().(*rdf.Row)
	defer e.rows.Put(rp)
	if !e.encode(mu, *rp) {
		return false, ctx.Err()
	}
	return e.decideRow(ctx, *rp)
}

// decideRow is Decide for a µ already encoded as a row of the forest
// layout, every bound value a TermID of G: no Mapping is built and no
// string is looked up. The row is only read.
func (e *Evaluator) decideRow(ctx context.Context, row rdf.Row) (bool, error) {
	p := e.planOf(row)
	for i := range p.trees {
		tp := &p.trees[i]
		if err := ctx.Err(); err != nil {
			return false, err
		}
		// µ must be a homomorphism from pat(Tµ) to G.
		if !tp.holds(row) {
			continue
		}
		extendable := false
		for _, t := range tp.tests {
			t.runs.Add(1)
			ext, err := e.extends(ctx, t, row)
			if err != nil {
				return false, err
			}
			if ext {
				extendable = true
				break
			}
		}
		if !extendable {
			return true, nil
		}
	}
	return false, ctx.Err()
}

// holds reports whether the tree has a witness subtree and µ maps
// every one of its patterns into G.
func (tp *treePlan) holds(row rdf.Row) bool {
	for _, n := range tp.witness {
		if !n.prog.Holds(row) {
			return false
		}
	}
	return tp.witness != nil
}

// extends decides one extension test with the evaluator's algorithm.
//
// AlgAuto runs the exact search under a probe budget equal to the size
// of the closure table the pebble game would build for this µ
// (Game.Cells): the search books one unit per node (its candidate
// lookup) and one per selection count, a table cell costs one
// membership probe, so the search gets about its fallback's cells and
// a test the search cannot finish costs about twice its game. On a
// large graph the table is huge and the search simply runs to its end.
// Mixing is correct: search verdicts are exact, a lost game always
// means "no extension", and the tests the mixture passes are a subset
// of those the all-pebble algorithm passes, so Theorem 1's
// completeness for dw(F) ≤ k carries over.
func (e *Evaluator) extends(ctx context.Context, t *childTest, row rdf.Row) (bool, error) {
	switch {
	case e.alg == AlgPebble:
		return t.play(ctx, e.k+1, row)
	case e.alg == AlgNaive || t.node.game == nil:
		return t.search(ctx, row, 0)
	}
	k := int(e.pebbles.Load())
	if k < 0 {
		return t.search(ctx, row, 0) // width guarded off: no fallback
	}
	// dw(F) is consulted only once a search exhausts; until then assume
	// the cheapest fallback, dw = 1.
	assumed := max(k, 2)
	found, err := t.search(ctx, row, t.node.game.Cells(assumed, row))
	if !errors.Is(err, hom.ErrBudget) {
		return found, err
	}
	t.exhaustions.Add(1)
	if k == 0 {
		if k = int(e.resolveWidth()); k != assumed {
			// Guarded off, or dw above the assumed 1: the search is owed
			// its real budget before the game is worth its price.
			return e.extends(ctx, t, row)
		}
	}
	t.fallbacks.Add(1)
	win, err := t.play(ctx, k, row)
	if errors.Is(err, pebble.ErrTooLarge) {
		return t.search(ctx, row, 0)
	}
	return win, err
}

// resolveWidth consults the width of the view's trees once and returns
// the pebble count dw+1, or -1 when they have too many subtrees to
// compute it.
func (e *Evaluator) resolveWidth() int32 {
	e.widthOnce.Do(func() {
		if ptree.CountSubtrees(e.fp.forest, MaxWidthSubtrees) > MaxWidthSubtrees {
			e.pebbles.Store(-1)
			return
		}
		e.pebbles.Store(int32(e.dw() + 1))
	})
	return e.pebbles.Load()
}

// compileGame compiles, once, the node's extension test as a pebble
// game: pat(n) with its parent's variables distinguished. By
// well-designedness those are exactly the variables of n any witness
// subtree above it binds, so one game serves every domain and view.
func (cn *compiledNode) compileGame(fp *ForestProgram) {
	cn.gameOnce.Do(func() {
		cn.game, cn.gameErr = pebble.Compile(cn.node.Pattern, cn.node.Parent.Vars(), fp.g, fp.layout)
	})
}

// play decides the test by the k-pebble game.
func (t *childTest) play(ctx context.Context, k int, row rdf.Row) (bool, error) {
	if t.node.game == nil {
		return false, t.node.gameErr
	}
	c, err := t.node.game.Decide(ctx, k, row)
	t.assignments.Add(int64(c.Assignments))
	return c.Win, err
}

// search decides the test by homomorphism search under a probe budget
// (≤ 0: unlimited).
func (t *childTest) search(ctx context.Context, row rdf.Row, budget int64) (bool, error) {
	s, _ := t.searchers.Get().(*hom.RowSearcher)
	if s == nil {
		s = t.node.prog.NewSearcher()
	}
	found, spent, err := s.Exists(ctx, row, budget)
	t.searchers.Put(s)
	t.probes.Add(spent)
	return found, err
}

// Eval is Decide without a context, panicking on its error.
func (e *Evaluator) Eval(mu rdf.Mapping) bool {
	ok, err := e.Decide(context.Background(), mu)
	if err != nil {
		panic(err)
	}
	return ok
}

// EvalAll evaluates every mapping sequentially.
func (e *Evaluator) EvalAll(mus []rdf.Mapping) []bool {
	out := make([]bool, len(mus))
	for i, mu := range mus {
		out[i] = e.Eval(mu)
	}
	return out
}

// EvalAllParallel evaluates the mappings on a pool of workers, each
// taking every workers-th mapping (workers ≤ 1 degrades to EvalAll).
// Results are positionally aligned with mus.
func (e *Evaluator) EvalAllParallel(mus []rdf.Mapping, workers int) []bool {
	workers = max(1, min(workers, len(mus)))
	out := make([]bool, len(mus))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(mus); i += workers {
				out[i] = e.Eval(mus[i])
			}
		}()
	}
	wg.Wait()
	return out
}

package core

import (
	"context"
	"slices"
	"sync"

	"wdsparql/internal/hom"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// This file is the ID-native, compiled, streaming counterpart of
// topdown.go: the same top-down procedure behind Lemma 1, but with the
// whole forest compiled once against the graph (per-node RowPrograms
// over one shared SlotLayout) and partial solutions carried as flat
// rdf.Rows instead of string mappings. The procedure is one pipeline:
// every root homomorphism continues straight into the first child's
// search, every solution of a child's subtree straight into the next
// child's, and the last emit into the caller's yield — extensions bind
// slots in place and are undone on backtrack, no child solution is
// materialised, and the continuations are built once per execution, so
// steady-state enumeration allocates nothing per row and a Limit stops
// after the work its rows cost.
// EnumerateTopDownForest and Count are decode-at-the-boundary shims
// over this pipeline; EnumerateTopDown keeps the original string
// implementation as the cross-validation reference and perf baseline.

// compiledNode is one wdPT node compiled for row enumeration.
type compiledNode struct {
	idx      int // dense index across the whole forest compilation
	prog     *hom.RowProgram
	children []*compiledNode
	// deferred holds the node's filter conjuncts that could not be
	// pushed into prog (they reach into optional descendants, or
	// pushdown is disabled), evaluated against each emitted solution
	// of this node's subtree. Local conjuncts live inside prog instead
	// and never appear here.
	deferred []*hom.FilterExpr
	// filterNotes renders every filter conjunct of the node for
	// explain output, marked [pushed] or [deferred].
	filterNotes []string

	// What decisions (batch.go) read of the node: the wdPT node, how
	// many of its variables its ancestors leave free, the slots its
	// patterns mention, and its pebble game, compiled on first need.
	node     *ptree.Node
	free     int
	slots    slotSet
	gameOnce sync.Once
	game     *pebble.Game
	gameErr  error
}

// ForestProgram is a wdPF compiled for repeated row enumeration
// against one graph. The program is immutable after CompileForest and
// safe for concurrent use: every enumeration (and every parallel
// worker) runs on its own enumState.
type ForestProgram struct {
	g      *rdf.Graph
	forest ptree.Forest
	layout *rdf.SlotLayout
	roots  []*compiledNode
	nodes  int
	noPush bool // compile-time switch: keep every filter deferred

	// member is the cross-tree dedup of a multi-tree forest by
	// membership test (union.go); nil when the forest keeps the
	// seen-set (dedupTrees) or has one tree.
	member *membership

	// Per-execution search tuning, attached to every searcher a state
	// creates; set through Tuned, zero values mean the heuristic
	// pre-planner behaviour. One execution uses one mode for all its
	// searchers — the SplitTop/RunOn consistency the parallel
	// enumeration needs.
	mode  hom.SearchMode
	slack int
	stats *hom.SearchStats

	// Output shaping, set through Project: the projected layout, the
	// full-layout slot behind each output slot (-1: never bound), and
	// whether the output deduplicates. nil outLayout = raw full rows.
	outLayout *rdf.SlotLayout
	projSlots []int32
	distinct  bool
}

// Tuned returns a view of the program with the given search tuning:
// pattern-selection mode, strict-mode slack factor (≤ 0 selects the
// default) and optional effort counters (sequential executions only —
// the counters are unsynchronised). The view shares all compiled
// state with fp; compiling once and tuning per execution is the
// intended pattern.
func (fp *ForestProgram) Tuned(mode hom.SearchMode, slack int, stats *hom.SearchStats) *ForestProgram {
	out := *fp
	out.mode, out.slack, out.stats = mode, slack, stats
	return &out
}

// CompileOpts carries compile-time switches for CompileForestOpts.
type CompileOpts struct {
	// NoFilterPushdown keeps every FILTER conjunct at its node's
	// subtree emit point instead of pushing local conjuncts into the
	// node's search. Streams are identical either way (pushdown only
	// prunes earlier); the switch exists for ablation and
	// cross-validation.
	NoFilterPushdown bool
}

// CompileForest compiles every tree of the forest against the graph,
// assigning all forest variables dense slots in one shared layout (so
// rows of different trees compare slot by slot).
func CompileForest(f ptree.Forest, g *rdf.Graph) *ForestProgram {
	return CompileForestOpts(f, g, CompileOpts{})
}

// CompileForestOpts is CompileForest with compile-time switches.
func CompileForestOpts(f ptree.Forest, g *rdf.Graph, opts CompileOpts) *ForestProgram {
	fp := &ForestProgram{g: g, forest: f, layout: rdf.NewSlotLayout(), noPush: opts.NoFilterPushdown}
	for _, t := range f {
		fp.roots = append(fp.roots, fp.compileNode(t.Root, nil))
	}
	// The layout is complete: carve the nodes' slot sets from one buffer.
	words := (fp.layout.Width() + 63) / 64
	buf := make([]uint64, fp.nodes*words)
	for _, r := range fp.roots {
		markSlots(r, buf, words)
	}
	fp.member = newMembership(fp)
	return fp
}

// markSlots gives n and its descendants their slot sets in buf.
func markSlots(n *compiledNode, buf []uint64, words int) {
	n.slots = buf[n.idx*words : (n.idx+1)*words : (n.idx+1)*words]
	n.prog.MarkSlots(n.slots)
	for _, c := range n.children {
		markSlots(c, buf, words)
	}
}

// compileNode compiles one wdPT node. entry lists the layout slots
// bound before any search of this node starts — the accumulated
// ancestor variables — which seed the node's join plan. The plan is
// built on its first reader (a ModeStrict execution or Explain), not
// here: ordered executions never read it.
//
// Filter conjuncts split by scope: a conjunct whose variables all lie
// in entry ∪ vars(pat(n)) is fully bound the moment the node's own
// search completes, so it is pushed into the RowProgram (evaluated at
// bind time, pruning before recursion) — before planning, so equality
// restrictions sharpen the join-order estimates. Conjuncts reaching
// into optional descendants defer to the subtree's emit point, and
// lower only after the children are compiled, when their variables
// are interned.
func (fp *ForestProgram) compileNode(n *ptree.Node, entry []int32) *compiledNode {
	cn := &compiledNode{
		idx:  fp.nodes,
		prog: hom.CompileRowProgram(n.Pattern, fp.g, fp.layout),
		node: n,
	}
	fp.nodes++
	vars := n.Vars()
	var own []int32 // slots of this node's variables not bound on entry
	for _, v := range vars {
		if s := int32(fp.layout.Intern(v.Value)); !slices.Contains(entry, s) {
			own = append(own, s)
		}
	}
	cn.free = len(own)
	var deferredExprs []sparql.Expr
	if len(n.Filters) > 0 {
		scope := map[string]bool{}
		for _, s := range entry {
			scope[fp.layout.Name(int(s))] = true
		}
		for _, v := range vars {
			scope[v.Value] = true
		}
		for _, f := range n.Filters {
			local := true
			for _, v := range sparql.ExprVars(f) {
				if !scope[v.Value] {
					local = false
					break
				}
			}
			if local && !fp.noPush {
				cn.prog.AttachFilter(compileFilterExpr(f, fp.layout, fp.g.Dict()))
				cn.filterNotes = append(cn.filterNotes, f.String()+" [pushed]")
			} else {
				deferredExprs = append(deferredExprs, f)
				cn.filterNotes = append(cn.filterNotes, f.String()+" [deferred]")
			}
		}
	}
	cn.prog.PlanLazily(entry)
	// Entry-bound slots of the children: everything bound on arrival
	// here plus this node's own variables. Well-designedness makes
	// this exact — a variable shared between a child's subtree and
	// anything outside it (an ancestor or an earlier sibling's
	// subtree) must occur at this node or above, so accumulating down
	// the tree captures every slot a child's search can see bound.
	childEntry := entry
	if len(own) > 0 {
		slices.Sort(own)
		childEntry = append(append(make([]int32, 0, len(entry)+len(own)), entry...), own...)
	}
	for _, c := range n.Children {
		cn.children = append(cn.children, fp.compileNode(c, childEntry))
	}
	for _, f := range deferredExprs {
		cn.deferred = append(cn.deferred, compileFilterExpr(f, fp.layout, fp.g.Dict()))
	}
	return cn
}

// Layout returns the layout of the rows the program streams: the
// projected layout after Project, the full forest layout otherwise.
func (fp *ForestProgram) Layout() *rdf.SlotLayout {
	if fp.outLayout != nil {
		return fp.outLayout
	}
	return fp.layout
}

// FullLayout returns the forest's full slot layout regardless of
// projection (complete after compilation).
func (fp *ForestProgram) FullLayout() *rdf.SlotLayout { return fp.layout }

// enumState is the per-execution scratch: one RowSearcher per node,
// the single row the partial solution lives in, and the continuations
// that stream it. done, when non-nil, is polled at every node's emit;
// once it is closed the whole enumeration unwinds as if sink had
// returned false — this is how context cancellation reaches the
// innermost recursion without the hot path paying for a channel read
// per row when no context is attached.
type enumState struct {
	fp     *ForestProgram
	nodes  []nodeState // by compiledNode.idx
	row    rdf.Row
	done   <-chan struct{}    // the execution's ctx.Done(); nil: never cancelled
	sink   func(rdf.Row) bool // receives every row a root emits
	member *memberTest        // drops rows an earlier tree emitted; nil: no test
}

// nodeState is one node's share of an enumState. next[i] continues the
// working row into child i; next[len(children)] is the node's emit,
// which polls stop, applies the node's deferred filters, records found
// and continues upward — into the parent's next child, or, at a root,
// into the sink. A searcher's yield is its node's next[0], so every
// solution of a subtree streams straight on into the next sibling: no
// child solution is ever materialised, and the closures are built once
// per execution, not per row.
type nodeState struct {
	searcher *hom.RowSearcher
	next     []func() bool
	found    bool // some subtree solution reached emit during the current run
}

// stopped polls the execution's cancellation with a non-blocking
// receive on its Done channel, which is lock-free while the channel is
// open (ctx.Err would take the context's mutex at every emit). A nil
// channel — context.Background and friends — costs one comparison.
func (st *enumState) stopped() bool {
	if st.done == nil {
		return false
	}
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// newState builds an execution's searchers and continuations; every row
// a root emits goes to sink (nil for states that only split work). done
// is the execution's Done channel: the emits poll it, and so does every
// searcher, inside its search (hom.RowSearcher.Watch), so a dead end
// stops under a deadline too.
func (fp *ForestProgram) newState(sink func(rdf.Row) bool, done <-chan struct{}) *enumState {
	st := &enumState{
		fp:    fp,
		nodes: make([]nodeState, fp.nodes),
		row:   fp.layout.NewRow(),
		sink:  sink,
		done:  done,
	}
	for i, r := range fp.roots {
		st.build(r, st.rootEmit(i))
	}
	return st
}

// rootEmit is where tree i's rows leave the enumeration: into the sink,
// unless the state's membership test finds the row in an earlier tree's
// answer (skipped, the stream goes on) or its decision is cancelled
// (the stream stops).
func (st *enumState) rootEmit(tree int) func() bool {
	if tree == 0 {
		return func() bool { return st.sink(st.row) }
	}
	return func() bool {
		if st.member != nil {
			dup, err := st.member.repeats(tree, st.row)
			if err != nil {
				return false
			}
			if dup {
				return true
			}
		}
		return st.sink(st.row)
	}
}

// memberTest returns an execution's cross-tree membership test, nil
// when the program dedups otherwise: by the seen-set (dedupTrees), by
// DISTINCT, or not at all (one tree).
func (fp *ForestProgram) memberTest(ctx context.Context) *memberTest {
	if fp.Dedup() != "membership" {
		return nil
	}
	return &memberTest{m: fp.member, ctx: ctx, bound: newSlotSet(fp.layout.Width())}
}

// build wires node n's searcher and continuations; up is what n's emit
// continues into.
func (st *enumState) build(n *compiledNode, up func() bool) {
	fp := st.fp
	ns := &st.nodes[n.idx]
	ns.searcher = n.prog.NewSearcher()
	ns.searcher.Tune(fp.mode, fp.slack, fp.stats)
	ns.searcher.Watch(st.done)
	k := len(n.children)
	ns.next = make([]func() bool, k+1)
	ns.next[k] = func() bool {
		if st.stopped() {
			return false
		}
		if !st.passesDeferred(n) {
			return true // row fails a filter: skip, keep streaming
		}
		ns.found = true
		return up()
	}
	// Built back to front: child i's emit continues into next[i+1].
	for i := k - 1; i >= 0; i-- {
		c, after := n.children[i], ns.next[i+1]
		cs := &st.nodes[c.idx]
		// A child with no compatible extension is skipped (it never
		// blocks maximality); a child with extensions MUST be extended,
		// and each of its subtree solutions has already continued into
		// the next child from inside the run. By connectivity later
		// children bind slots disjoint from this child's, so the nesting
		// is the slot-wise cross product of the per-child solutions.
		ns.next[i] = func() bool {
			cs.found = false
			if !cs.searcher.Run(st.row, cs.next[0]) {
				return false
			}
			return cs.found || after()
		}
		st.build(c, after)
	}
}

// enumerateTree streams ⟦T⟧G for one tree into the sink: every maximal
// extension of every root homomorphism. It reports whether enumeration
// ran to exhaustion (false: the sink or stop ended it). The row passed
// to the sink is the state's working row — valid only during the call.
//
// For trees satisfying the wdPT connectivity condition (in particular
// everything ptree.WDPF produces) the streamed rows are pairwise
// distinct: root homomorphisms differ on root slots, extensions of one
// base through a child differ on the child's fresh slots, and distinct
// children bind disjoint fresh slots.
func (st *enumState) enumerateTree(root *compiledNode) bool {
	st.fp.layout.Reset(st.row)
	ns := &st.nodes[root.idx]
	return ns.searcher.Run(st.row, ns.next[0])
}

// Rows streams ⟦F⟧G: every solution row exactly once, until yield
// returns false. Rows passed to yield are only valid during the call
// (copy to retain). Single-tree forests stream with no dedup state. A
// multi-tree forest drops a row of tree j that some earlier tree Tᵢ
// also answers: without FILTER arms by testing r ∈ ⟦Tᵢ⟧G (slot masks,
// then a decision on Tᵢ's node programs), which keeps no per-row state;
// with them through an IDMappingSet of the rows already emitted. Under DISTINCT
// the projected dedup does both jobs.
func (fp *ForestProgram) Rows(yield func(rdf.Row) bool) {
	fp.RowsContext(context.Background(), yield)
}

// RowsContext is Rows with cooperative cancellation: the context is
// polled at every node's emit, so cancelling it stops the enumeration
// as promptly as yield returning false would — the same contract,
// extended to ctx.Done(). It returns ctx.Err(), i.e. nil on a run to
// exhaustion or an early stop through yield, and the cancellation
// cause when the context ended the stream. Contexts that can never be
// cancelled add no per-row overhead; the cross-tree membership test,
// when a row reaches its exact decision, polls ctx like Decide does.
func (fp *ForestProgram) RowsContext(ctx context.Context, yield func(rdf.Row) bool) error {
	st := fp.newState(fp.dedupTrees(fp.wrapOutput(yield)), ctx.Done())
	st.member = fp.memberTest(ctx)
	for _, root := range fp.roots {
		if !st.enumerateTree(root) {
			break
		}
	}
	return ctx.Err()
}

// Dedup names how the program's stream drops rows that several trees
// answer: "membership" (the test of union.go), "set" (an IDMappingSet
// of emitted rows, for forests with FILTER arms or outside NR normal
// form) or "distinct" (DISTINCT's projected set); "" for a one-tree
// forest, whose stream has no repeats to drop.
func (fp *ForestProgram) Dedup() string {
	switch {
	case len(fp.roots) < 2:
		return ""
	case fp.distinct:
		return "distinct"
	case fp.member != nil:
		return "membership"
	}
	return "set"
}

// dedupTrees wraps out with the seen-set dedup on full rows that
// multi-tree forests with FILTER arms need; skipped where the
// membership test runs instead and under DISTINCT, whose projected
// dedup subsumes it.
func (fp *ForestProgram) dedupTrees(out func(rdf.Row) bool) func(rdf.Row) bool {
	if fp.Dedup() != "set" {
		return out
	}
	seen := rdf.NewIDMappingSet(fp.layout, fp.g.Dict().NumIRIs())
	return func(r rdf.Row) bool {
		if !seen.Add(r) {
			return true // duplicate across trees
		}
		return out(r)
	}
}

// EnumerateSet materialises ⟦F⟧G as a deduplicated row set (over the
// projected layout when the program carries a projection).
func (fp *ForestProgram) EnumerateSet() *rdf.IDMappingSet {
	out := rdf.NewIDMappingSet(fp.Layout(), fp.g.Dict().NumIRIs())
	st := fp.newState(fp.wrapOutput(func(r rdf.Row) bool {
		out.Add(r)
		return true
	}), nil)
	for _, root := range fp.roots {
		st.enumerateTree(root)
	}
	return out
}

// RowsParallel streams ⟦F⟧G with the enumeration work partitioned on a
// worker pool of the given size. Work items are the top-level
// candidate triples of each root search (hom.RowSearcher.SplitTop):
// one item covers everything one candidate leads to — the rest of the
// root homomorphism search plus all maximal extensions through the
// children — so, unlike the earlier root-row partitioning, the root
// search itself runs on the pool instead of being materialised
// sequentially upfront. Items are handed to the pool in candidate
// order.
//
// The stream is identical to RowsContext — same rows, same order —
// because completed work items are merged in their sequential
// (candidate) order, whatever order the pool processed them in;
// workers ≤ 1 degrades to the sequential path. The cross-tree
// membership test runs inside the workers — an item's rows leave
// through its tree's root emit, so a duplicate is dropped before it is
// cloned — and only forests that keep the seen-set dedup in the merge.
// yield runs on the calling goroutine only. Cancelling ctx (or yield returning false)
// stops every worker at its next yield boundary, and RowsParallel does
// not return before all workers have exited, so an early stop leaks no
// goroutines. The returned error is the caller's ctx.Err(): nil for
// exhaustion or a yield-initiated stop, the cancellation cause
// otherwise.
func (fp *ForestProgram) RowsParallel(ctx context.Context, workers int, yield func(rdf.Row) bool) error {
	if workers <= 1 {
		return fp.RowsContext(ctx, yield)
	}
	// inner is cancelled either by the caller's ctx or by yield ending
	// the stream; every worker polls it at yield boundaries.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	// Split every root search at its top-level candidates. Trees whose
	// root program has no branch point (an empty root pattern yields
	// exactly the empty extension) become one whole-tree item.
	type item struct {
		root  *compiledNode
		cand  rdf.IDTriple
		whole bool // run the entire tree sequentially
	}
	var items []item
	st := fp.newState(nil, inner.Done())
	for _, root := range fp.roots {
		cands, ok := st.nodes[root.idx].searcher.SplitTop(st.row)
		if !ok {
			items = append(items, item{root: root, whole: true})
			continue
		}
		for _, c := range cands {
			items = append(items, item{root: root, cand: c})
		}
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([][]rdf.Row, len(items))
	ready := make([]chan struct{}, len(items))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []rdf.Row
			ws := fp.newState(func(r rdf.Row) bool {
				local = append(local, r.Clone())
				return true
			}, inner.Done())
			ws.member = fp.memberTest(inner)
			for i := range next {
				it := items[i]
				local = nil
				if it.whole {
					ws.enumerateTree(it.root)
				} else {
					fp.layout.Reset(ws.row)
					rs := &ws.nodes[it.root.idx]
					rs.searcher.RunOn(ws.row, it.cand, rs.next[0])
				}
				results[i] = local
				close(ready[i])
			}
		}()
	}
	// The feeder gives up (closing next, which drains the pool) as soon
	// as the run is cancelled; until then it hands out items in
	// candidate order. The merge below is indexed by item, so
	// scheduling never leaks into the stream.
	go func() {
		defer close(next)
		for i := range items {
			select {
			case next <- i:
			case <-inner.Done():
				return
			}
		}
	}()
	out := fp.dedupTrees(fp.wrapOutput(yield))
merge:
	for i := range items {
		select {
		case <-ready[i]:
		case <-inner.Done():
			break merge
		}
		for _, r := range results[i] {
			if !out(r) {
				break merge
			}
		}
		results[i] = nil // release the merged batch
	}
	cancel()
	wg.Wait()
	return ctx.Err()
}

// EnumerateTopDownForestID computes ⟦F⟧G as rows.
func EnumerateTopDownForestID(f ptree.Forest, g *rdf.Graph) *rdf.IDMappingSet {
	return CompileForest(f, g).EnumerateSet()
}

// EnumerateTopDownParallel computes ⟦F⟧G as rows on a worker pool, one
// work item per top-level root candidate (RowsParallel). workers ≤ 1
// degrades to the sequential stream; the set is identical to
// EnumerateTopDownForestID's, including insertion order.
func EnumerateTopDownParallel(f ptree.Forest, g *rdf.Graph, workers int) *rdf.IDMappingSet {
	fp := CompileForest(f, g)
	out := rdf.NewIDMappingSet(fp.Layout(), g.Dict().NumIRIs())
	fp.RowsParallel(context.Background(), workers, func(r rdf.Row) bool {
		out.Add(r)
		return true
	})
	return out
}

package wdsparql

// This file is the prepared-query engine: the production entry point
// of the package. An Engine captures a graph plus engine-wide options;
// Prepare runs every graph-pattern-independent static analysis exactly
// once (well-designedness check, wdpf translation, row-program
// compilation over one shared slot layout) and returns an immutable,
// goroutine-safe PreparedQuery whose execution methods expose the full
// pipeline tiered by cost:
//
//	q.Rows(ctx)    — zero-decode ID-native rows (hot callers)
//	q.Select(ctx)  — streaming Mappings, decoded at the boundary
//	q.Count(ctx)   — cardinality of ⟦P⟧G without decoding
//	q.All(ctx)     — materialising convenience (a MappingSet)
//	q.Ask(ctx, µ)  — wdEVAL: width-aware by default, see WithAlgorithm
//
// Limit/Offset/Parallel are per-call ExecOptions riding the
// early-terminating row iterator; cancellation of ctx stops any of the
// streams (and all parallel workers) at the next yield boundary. See
// DESIGN.md for the full API contract.

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"wdsparql/internal/core"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Row is a solution mapping in flat ID-native form: Row[s] is the
// TermID bound to the variable with slot s of the query's SlotLayout,
// or Unbound. Rows yielded by PreparedQuery.Rows alias the working row
// of the enumeration — valid only during the yield; Clone to retain.
type Row = rdf.Row

// SlotLayout maps the variables of one prepared query to the dense
// slots of its rows. A prepared query's layout is read-only.
type SlotLayout = rdf.SlotLayout

// Unbound marks an unbound slot in a Row.
const Unbound = rdf.Unbound

// Engine evaluates prepared queries against one RDF graph. It captures
// the graph plus the engine-wide execution options; the zero cost of a
// query re-run is the whole point — Prepare once, execute many.
//
// An Engine is immutable after NewEngine and safe for concurrent use.
// The graph must not be mutated while the engine is in use (the same
// constraint the underlying read paths already impose).
type Engine struct {
	g        *rdf.Graph
	alg      core.Algorithm
	pebbleK  int
	workers  int
	planner  bool
	slack    int
	pushdown bool

	qcacheCap int
	qcache    *lruCache[*PreparedQuery] // nil when WithQueryCache is off
}

// Option configures an Engine.
type Option func(*Engine)

// WithAlgorithm overrides the wdEVAL decision algorithm used by Ask.
// The default, AlgAuto, is exact and width-aware: every extension test
// runs the homomorphism search under a node budget and falls back to
// the (dw(P)+1)-pebble game when the budget runs out. AlgNaive forces
// the Lemma 1 algorithm literally (unbudgeted homomorphism tests,
// exponential in the worst case); AlgPebble forces Theorem 1's
// polynomial-time algorithm at the bound set by WithPebbleK (always
// sound; complete only when dw(P) ≤ k).
func WithAlgorithm(a Algorithm) Option { return func(e *Engine) { e.alg = a } }

// WithPebbleK sets the domination-width bound k ≥ 1 of an explicit
// WithAlgorithm(AlgPebble): every extension test is the (k+1)-pebble
// game, and answers are guaranteed correct when dw(P) ≤ k. The default
// is 1; Ask reports an error for a pebble engine configured with k < 1.
// AlgAuto ignores it — it reads dw(P) off the prepared query.
func WithPebbleK(k int) Option { return func(e *Engine) { e.pebbleK = k } }

// WithWorkers sets the default worker-pool size for enumeration; the
// per-call Parallel ExecOption overrides it. The default is 1
// (sequential).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithQueryCache equips the engine with an LRU cache of up to n
// prepared queries keyed by the exact query text — the seam
// PrepareText (and the HTTP endpoint riding it) uses so a repeated
// query skips parsing, static analysis and compilation entirely. Hot
// queries stay resident; one-off queries age out. n ≤ 0 disables the
// cache (the default).
func WithQueryCache(n int) Option { return func(e *Engine) { e.qcacheCap = n } }

// WithPlanner turns the join-order query planner on or off for the
// whole engine (default on); the per-call Planner ExecOption overrides
// it. With the planner on, ordered executions (Rows, Select, All) run
// with complete dead-branch detection — streams stay byte-identical to
// planner-off, never fewer nor reordered rows, by the mode contract in
// internal/hom — and order-free executions (Count) follow the compiled
// join order with one count probe per search node.
func WithPlanner(on bool) Option { return func(e *Engine) { e.planner = on } }

// WithPlannerSlack sets the planner's adaptive escape hatch: an
// order-following search node re-scores all remaining patterns when
// the actual candidate count exceeds slack × max(1, estimate). k ≤ 0
// selects the default (hom.DefaultSlack).
func WithPlannerSlack(k int) Option { return func(e *Engine) { e.slack = k } }

// WithFilterPushdown turns bind-time FILTER pushdown on or off for the
// whole engine (default on). With pushdown on, FILTER conjuncts whose
// variables are all in scope at one wdPT node are evaluated inside that
// node's search the moment their last variable binds, pruning the
// branch before recursion; off, every conjunct is evaluated per emitted
// subtree solution. The row stream is byte-identical either way (a
// filtered stream is a subsequence of the unfiltered one in both
// placements); only the search effort changes. Off exists for
// cross-validation and ablation (wdfuzz, the E17 experiment).
func WithFilterPushdown(on bool) Option { return func(e *Engine) { e.pushdown = on } }

// NewEngine returns an engine over the graph. A nil graph is replaced
// by an empty one — useful for purely static analysis (widths, certain
// variables) where no data is involved.
//
// NewEngine folds the graph's write overlay into its sealed base
// (rdf.Graph.Freeze, a no-op without an overlay): engines only read,
// so every prepared query runs on O(1) array probes and galloping
// range searches instead of map lookups. Freezing preserves result
// content and order exactly. It happens in place on the caller's
// graph; the graph must not change while the engine is in use.
func NewEngine(g *Graph, opts ...Option) *Engine {
	if g == nil {
		g = rdf.NewGraph()
	}
	e := &Engine{g: g, alg: core.AlgAuto, pebbleK: 1, workers: 1, planner: true, pushdown: true}
	for _, o := range opts {
		o(e)
	}
	e.qcache = newLRUCache[*PreparedQuery](e.qcacheCap)
	g.Freeze()
	return e
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *Graph { return e.g }

// Prepare runs the static analysis of the pattern once — the
// well-designedness check, the wdpf translation, and the compilation
// of every tree into row programs over one shared slot layout — and
// returns a reusable PreparedQuery. The widths (domination, branch,
// local), the certain variables and the join plans (read only by Count
// and Explain; streamed executions never plan) are computed lazily on
// first use and cached; everything else is paid here, never again per
// execution.
//
// Prepare fails exactly when the pattern is not well-designed (for a
// SELECT query: its WHERE pattern, with every FILTER safe and every
// projected variable occurring in the pattern).
func (e *Engine) Prepare(p Pattern) (*PreparedQuery, error) {
	an, err := analyze(p)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, an: an, forest: an.forest, prog: e.compile(an, an.forest)}, nil
}

// compile lowers a forest of an analysis onto the engine's graph — the
// analysis's own, or a text's instantiated from a template's: the
// forest compiles under the engine's pushdown setting, and a SELECT
// wrapper becomes a projection view (SELECT * without DISTINCT is the
// identity and compiles away).
func (e *Engine) compile(an *analysis, f ptree.Forest) *core.ForestProgram {
	prog := core.CompileForestOpts(f, e.g, core.CompileOpts{NoFilterPushdown: !e.pushdown})
	if an.sel && (an.distinct || len(an.proj) > 0) {
		prog = prog.Project(an.proj, an.distinct)
	}
	return prog
}

// PrepareText parses src as a graph pattern and prepares it, analysed
// per template: the query's constants (in subject and object positions
// and in FILTER comparisons) are lifted to parameters
// (sparql.TemplateKey, one pass over the tokens), and the template is
// parsed and analysed once — package-wide, shared by every engine and
// generation. A text of a known shape then costs the key pass, its
// template's forest instantiated with its constants
// (ptree.InstantiateForest, which restores wdpf's order) and the
// compilation of that forest. The result is the query Prepare gives
// for the parsed text: the same forest, streams, counts, Ask answers
// and Explain plans. A text with no constant to lift is prepared on
// its own.
//
// With WithQueryCache the engine's LRU keeps the prepared query under
// the exact text, so a repeated text is returned without even the
// lexer. Without it the same path runs and keeps nothing. Errors —
// parse failures as well as non-well-designed patterns — are the
// text's own and are never cached, so a malformed request cannot
// occupy (or poison) a cache slot.
func (e *Engine) PrepareText(src string) (*PreparedQuery, error) {
	if q, ok := e.qcache.get(src); ok {
		return q, nil
	}
	key, consts, ok := sparql.TemplateKey(src)
	if ok && consts != nil {
		an, hit, err := analyzeTemplate(key)
		e.qcache.countTemplate(hit)
		if err == nil {
			f := ptree.InstantiateForest(an.forest, consts)
			q := &PreparedQuery{eng: e, an: an, forest: f, prog: e.compile(an, f), key: key, consts: consts}
			return e.qcache.add(src, q), nil
		}
		// The template is in error: so is the text, whose own parse or
		// analysis below reports it in the text's terms.
	}
	p, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	q, err := e.Prepare(p)
	if err != nil {
		return nil, err
	}
	q.key = src
	return e.qcache.add(src, q), nil
}

// QueryCacheStats reports the hit/miss counters and occupancy of the
// engine's PrepareText cache; all-zero when WithQueryCache is not
// configured.
func (e *Engine) QueryCacheStats() CacheStats { return e.qcache.cacheStats() }

// MustPrepare is Prepare panicking on error.
func (e *Engine) MustPrepare(p Pattern) *PreparedQuery {
	q, err := e.Prepare(p)
	if err != nil {
		panic(err)
	}
	return q
}

// PrepareForest prepares an already-translated wdPF, skipping the
// pattern-level analysis. Pattern() of the result is nil.
func (e *Engine) PrepareForest(f Forest) *PreparedQuery {
	an := &analysis{forest: f}
	return &PreparedQuery{eng: e, an: an, forest: f, prog: e.compile(an, f)}
}

// PreparedQuery is a query compiled against an engine's graph. It is
// immutable and safe for concurrent use: any number of goroutines may
// run Select/Rows/Count/All/Ask on the same PreparedQuery at once —
// every execution carries its own scratch state, and the lazily-cached
// static measures are computed under sync.Once.
type PreparedQuery struct {
	eng    *Engine
	an     *analysis
	forest Forest // an.forest, or the text's instantiated from it
	prog   *core.ForestProgram

	// key is the template key of a query PrepareText prepared (the text
	// itself when nothing was lifted); consts are the text's constants
	// by parameter number when it was instantiated from a template, nil
	// otherwise — an is then the template's analysis, and the text's
	// own pattern is built from it on first request.
	key     string
	consts  []string
	patOnce sync.Once
	pat     Pattern

	// The wdEVAL view of prog behind Ask, built on first use: one cached
	// decision plan per dom(µ), over prog's compiled node programs.
	askOnce sync.Once
	ask     *core.Evaluator
}

// evaluator returns the query's wdEVAL evaluator. dw(P) comes from the
// shared analysis, so the engine, the legacy shims and DominationWidth
// all populate one sync.Once.
func (q *PreparedQuery) evaluator() *core.Evaluator {
	q.askOnce.Do(func() {
		q.ask = core.NewEvaluator(q.eng.alg, q.eng.pebbleK, q.prog)
		q.ask.UseWidth(q.an.dominationWidth)
	})
	return q.ask
}

// analysis is the graph-independent static analysis of one pattern —
// or of one query template, which stands for every text lifted to it:
// its forest plus the lazily-cached width measures and certain
// variables. It is shared — between a PreparedQuery and the legacy
// shims, and across engines preparing the same pattern — so the
// exponential width computations run at most once per pattern.
type analysis struct {
	pattern sparql.Pattern // nil when prepared from a forest
	forest  ptree.Forest

	// SELECT wrapper, unwrapped before the wdpf translation: the
	// projected variable names in declared order (nil for SELECT *)
	// and the DISTINCT flag. sel distinguishes a bare pattern from a
	// SELECT query.
	sel      bool
	proj     []string
	distinct bool

	dwOnce sync.Once
	dw     int

	bwOnce sync.Once
	bw     int
	bwErr  error

	lwOnce sync.Once
	lw     int

	cvOnce sync.Once
	cv     []rdf.Term
}

// analysisCache memoises static analyses across legacy-shim calls and
// engines, keyed by the pattern's canonical text, or by the template key
// for PrepareText. The two name the same pattern when they coincide
// (the parameters of a key parse to the IRIs ">i"), so their entries
// are interchangeable. An LRU: hot patterns stay resident across any
// workload length, cold ones age out instead of permanently occupying
// the bound.
var analysisCache = newLRUCache[*analysis](analysisCacheMax)

const analysisCacheMax = 256

// analyze is the one shared prepare path: every public entry point
// that accepts a Pattern — Engine.Prepare and all the legacy shims —
// funnels through here, so the forest of a given pattern is built once
// even when legacy code calls Solutions, LocalWidth and CertainVars
// back to back.
func analyze(p Pattern) (*analysis, error) {
	key := sparql.Format(p)
	if an, ok := analysisCache.get(key); ok {
		return an, nil
	}
	an, err := newAnalysis(p)
	if err != nil {
		return nil, err
	}
	// add returns the first stored analysis when a concurrent first
	// analysis won the race: every caller adopts one shared analysis,
	// so its exponential width computations run at most once.
	return analysisCache.add(key, an), nil
}

// analyzeTemplate is analyze for a template key: the template is parsed
// and analysed like any pattern. hit reports that the analysis was
// cached.
func analyzeTemplate(key string) (an *analysis, hit bool, err error) {
	if an, ok := analysisCache.get(key); ok {
		return an, true, nil
	}
	p, err := sparql.ParseTemplate(key)
	if err != nil {
		return nil, false, err
	}
	an, err = newAnalysis(p)
	if err != nil {
		return nil, false, err
	}
	return analysisCache.add(key, an), false, nil
}

// newAnalysis checks p once — for a SELECT query the full query, whose
// projection check the wdpf translation of the WHERE pattern would not
// see — and translates it; projection and DISTINCT are execution
// concerns, not forest structure, so a SELECT wrapper is unwrapped.
func newAnalysis(p Pattern) (*analysis, error) {
	if err := sparql.CheckWellDesigned(p); err != nil {
		return nil, err
	}
	an := &analysis{pattern: p}
	inner := p
	if s, ok := p.(sparql.Select); ok {
		an.sel = true
		an.distinct = s.Distinct
		for _, v := range s.Vars {
			an.proj = append(an.proj, v.Value)
		}
		inner = s.Where
	}
	f, err := ptree.WDPFChecked(inner)
	if err != nil {
		return nil, err
	}
	an.forest = f
	return an, nil
}

// The lazily-cached static measures live here, on the shared analysis,
// so the PreparedQuery methods and the legacy shims populate the same
// sync.Onces with the same bodies.

func (an *analysis) dominationWidth() int {
	an.dwOnce.Do(func() { an.dw = core.DominationWidth(an.forest) })
	return an.dw
}

func (an *analysis) branchTreewidth() (int, error) {
	an.bwOnce.Do(func() {
		if len(an.forest) != 1 {
			an.bwErr = fmt.Errorf("wdsparql: branch treewidth is defined for UNION-free patterns; forest has %d trees", len(an.forest))
			return
		}
		an.bw = core.BranchTreewidth(an.forest[0])
	})
	return an.bw, an.bwErr
}

func (an *analysis) localWidth() int {
	an.lwOnce.Do(func() { an.lw = core.LocalWidth(an.forest) })
	return an.lw
}

func (an *analysis) certainVars() []rdf.Term {
	an.cvOnce.Do(func() { an.cv = ptree.CertainVarsForest(an.forest) })
	return an.cv
}

// Pattern returns the prepared pattern, or nil when the query was
// prepared from a forest.
func (q *PreparedQuery) Pattern() Pattern {
	if q.consts == nil {
		return q.an.pattern
	}
	q.patOnce.Do(func() { q.pat = sparql.Instantiate(q.an.pattern, q.consts) })
	return q.pat
}

// Forest returns the query's well-designed pattern forest. Callers
// must not mutate it.
func (q *PreparedQuery) Forest() Forest { return q.forest }

// Layout returns the slot layout shared by all rows of the query.
func (q *PreparedQuery) Layout() *SlotLayout { return q.prog.Layout() }

// DominationWidth returns dw(P) (Definition 2), computed on first call
// and cached. Exponential in |P| — a static property of the query.
func (q *PreparedQuery) DominationWidth() int { return q.an.dominationWidth() }

// BranchTreewidth returns bw(P) (Definition 3), defined for UNION-free
// patterns (single-tree forests); by Proposition 5 it equals dw(P)
// there. Computed on first call and cached.
func (q *PreparedQuery) BranchTreewidth() (int, error) { return q.an.branchTreewidth() }

// LocalWidth returns the local-tractability width of Letelier et al.,
// computed on first call and cached.
func (q *PreparedQuery) LocalWidth() int { return q.an.localWidth() }

// CertainVars returns the variables bound in every solution over every
// graph, computed on first call and cached. Callers must not mutate
// the returned slice.
func (q *PreparedQuery) CertainVars() []Term { return q.an.certainVars() }

// ExecOption configures one execution of a prepared query.
type ExecOption func(*execConfig)

type execConfig struct {
	limit   int // < 0: unlimited
	offset  int
	workers int
	planner int8 // 0: engine default, plannerOn / plannerOff: forced
}

const (
	plannerOn  int8 = 1
	plannerOff int8 = 2
)

// Limit caps the number of solutions streamed (or materialised) by the
// call; the enumeration stops as soon as the cap is reached. Limit(0)
// yields no solutions; a negative n means unlimited (the default).
func Limit(n int) ExecOption { return func(c *execConfig) { c.limit = n } }

// Offset skips the first n solutions of the stream. Combined with
// Limit this is the classic pagination pair: the stream still stops
// early after offset+limit solutions, never materialising the rest.
func Offset(n int) ExecOption { return func(c *execConfig) { c.offset = n } }

// Planner overrides the engine-wide WithPlanner setting for this call.
// The row stream is identical either way (the determinism contract);
// only the search effort changes.
func Planner(on bool) ExecOption {
	return func(c *execConfig) {
		if on {
			c.planner = plannerOn
		} else {
			c.planner = plannerOff
		}
	}
}

// Parallel runs the enumeration on a pool of n workers, one work item
// per top-level candidate triple of each root search. The stream is
// identical to the sequential one (same solutions, same order); n ≤ 1
// is sequential.
// Overrides the engine-wide WithWorkers default for this call.
func Parallel(n int) ExecOption { return func(c *execConfig) { c.workers = n } }

func (q *PreparedQuery) config(opts []ExecOption) execConfig {
	cfg := execConfig{limit: -1, offset: 0, workers: q.eng.workers}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// tunedProg resolves the execution's search mode from the engine-wide
// planner setting and the per-call override. Ordered executions run
// ModePlanned (stream byte-identical to the heuristic); order-free
// ones — Count, whose result is invariant under enumeration order
// even through Limit/Offset windowing — may follow the compiled order
// literally (ModeStrict).
func (q *PreparedQuery) tunedProg(cfg execConfig, orderFree bool) *core.ForestProgram {
	on := q.eng.planner
	switch cfg.planner {
	case plannerOn:
		on = true
	case plannerOff:
		on = false
	}
	switch {
	case !on:
		return q.prog // zero tuning: the heuristic pre-planner search
	case orderFree:
		return q.prog.Tuned(hom.ModeStrict, q.eng.slack, nil)
	default:
		return q.prog.Tuned(hom.ModePlanned, q.eng.slack, nil)
	}
}

// stream drives one execution: Limit/Offset windowing over the
// early-terminating row iterator, sequential or parallel. The returned
// error is ctx.Err() — nil unless the context ended the stream.
func (q *PreparedQuery) stream(ctx context.Context, cfg execConfig, orderFree bool, yield func(rdf.Row) bool) error {
	if cfg.limit == 0 {
		return ctx.Err()
	}
	prog := q.tunedProg(cfg, orderFree)
	skip, remaining := cfg.offset, cfg.limit
	emit := func(r rdf.Row) bool {
		if skip > 0 {
			skip--
			return true
		}
		if !yield(r) {
			return false
		}
		if remaining > 0 {
			remaining--
			if remaining == 0 {
				return false
			}
		}
		return true
	}
	if cfg.workers > 1 {
		return prog.RowsParallel(ctx, cfg.workers, emit)
	}
	return prog.RowsContext(ctx, emit)
}

// Rows streams ⟦P⟧G as ID-native rows — the zero-decode tier for hot
// callers; no strings are touched. Each solution is yielded exactly
// once, in the deterministic enumeration order. A UNION's arms stream
// one after the other; a row an earlier arm already answered is dropped
// by testing its membership in that arm's answer, which costs no memory
// per row (arms carrying a FILTER still keep a set of the rows emitted;
// Explain reports which). The yielded Row aliases the enumeration's
// working row: it is valid only during the yield; Clone to retain. Breaking out of the range loop stops the
// enumeration immediately; cancelling ctx does the same at the next
// yield boundary (check ctx.Err() after the loop to distinguish a
// complete stream from a cancelled one).
func (q *PreparedQuery) Rows(ctx context.Context, opts ...ExecOption) iter.Seq[Row] {
	cfg := q.config(opts)
	return func(yield func(Row) bool) {
		q.stream(ctx, cfg, false, func(r rdf.Row) bool { return yield(r) })
	}
}

// Select streams ⟦P⟧G as Mappings, decoded at the yield boundary —
// the ergonomic tier. Early termination and cancellation behave as in
// Rows; each yielded Mapping is freshly allocated and owned by the
// caller.
func (q *PreparedQuery) Select(ctx context.Context, opts ...ExecOption) iter.Seq[Mapping] {
	cfg := q.config(opts)
	return func(yield func(Mapping) bool) {
		d := q.eng.g.Dict()
		layout := q.prog.Layout()
		q.stream(ctx, cfg, false, func(r rdf.Row) bool {
			return yield(layout.DecodeRow(d, r))
		})
	}
}

// Count returns |⟦P⟧G| (after Limit/Offset windowing, if any) without
// decoding or materialising any solution.
func (q *PreparedQuery) Count(ctx context.Context, opts ...ExecOption) (int, error) {
	n := 0
	err := q.stream(ctx, q.config(opts), true, func(rdf.Row) bool {
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// All materialises ⟦P⟧G as a MappingSet — the convenience tier,
// equivalent to collecting Select.
func (q *PreparedQuery) All(ctx context.Context, opts ...ExecOption) (*MappingSet, error) {
	out := rdf.NewMappingSet()
	d := q.eng.g.Dict()
	layout := q.prog.Layout()
	err := q.stream(ctx, q.config(opts), false, func(r rdf.Row) bool {
		out.Add(layout.DecodeRow(d, r))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ask decides wdEVAL — whether µ ∈ ⟦P⟧G. The decision plan for dom(µ)
// (witness subtree per tree, membership probes, child extension tests
// cheapest first) is built on the first call and cached; it runs the
// node programs the query's enumeration runs, compiled once at
// Prepare. By default every extension test is an exact homomorphism
// search under a node budget — the size of the pebble game it would
// fall back to — and only a test that exhausts it is decided by the
// (dw(P)+1)-pebble game, which Theorem 1 makes complete; dw(P) is
// computed at that moment, once. WithAlgorithm(AlgNaive|AlgPebble)
// force either algorithm literally; an AlgPebble test beyond what the
// pebble kernel represents (more than 64 free variables) is an error,
// where the default stays on the homomorphism search. Cancellation is
// polled between trees, every 1024 nodes of a search and between
// the sweeps of a pebble closure.
//
// Queries carrying a FILTER or a SELECT projection fall back to a
// membership scan over the (filtered, projected) row stream: the
// homomorphism and pebble-game machinery decides membership for the
// bare pattern semantics only, and a filtered solution set is not
// closed under the subsumption arguments those algorithms rely on.
func (q *PreparedQuery) Ask(ctx context.Context, mu Mapping) (bool, error) {
	if err := q.eng.askErr(); err != nil {
		return false, err
	}
	if q.prog.Projected() || q.an.forest.HasFilters() {
		return q.askByScan(ctx, mu)
	}
	ok, err := q.evaluator().Decide(ctx, mu)
	if err != nil && ctx.Err() == nil {
		err = fmt.Errorf("wdsparql: Ask: %w", err)
	}
	return ok, err
}

// askErr is the error every Ask on the engine returns: nil unless the
// pebble algorithm was chosen with no valid bound.
func (e *Engine) askErr() error {
	if e.alg == AlgPebble && e.pebbleK < 1 {
		return fmt.Errorf("wdsparql: the pebble algorithm requires k ≥ 1, got WithPebbleK(%d)", e.pebbleK)
	}
	return nil
}

// askByScan decides µ ∈ ⟦Q⟧G by streaming the query's rows and
// comparing each against µ encoded over the output layout. Order-free,
// so the planner may follow the compiled order literally; stops at the
// first match.
func (q *PreparedQuery) askByScan(ctx context.Context, mu Mapping) (bool, error) {
	target, ok := q.prog.Layout().EncodeMapping(q.eng.g.Dict(), mu)
	if !ok {
		return false, nil
	}
	found := false
	err := q.stream(ctx, q.config(nil), true, func(r rdf.Row) bool {
		for i := range r {
			if r[i] != target[i] {
				return true
			}
		}
		found = true
		return false
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

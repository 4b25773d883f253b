// Package pebble implements the existential k-pebble game of Kolaitis
// and Vardi in the form used by the paper (Section 3): given a
// generalised t-graph (S, X), an RDF graph G and a mapping µ with
// dom(µ) = X, decide whether the Duplicator wins the game, written
// (S, X) →ᵏ_µ G.
//
// The decision procedure is the standard k-consistency closure: it
// maintains, for every set D of at most k free variables, the set of
// partial assignments D → dom(G) that are partial homomorphisms, and
// deletes an assignment when it cannot be extended to some further
// variable ("forth" condition) or when a superset assignment must be
// deleted (restriction closure). The Duplicator wins iff the empty
// assignment survives. The closure runs in time polynomial in
// (|vars(S)|·|dom(G)|)ᵏ for every fixed k (Proposition 2 of the
// paper); the pay-off, Proposition 3, is that →ᵏ coincides with →
// whenever the core of (S, X) has treewidth at most k−1.
//
// The work splits by what it depends on. A Game is everything fixed by
// (S, X) and G: free variables indexed densely, triples lowered to
// templates over free variables, X slots of a caller row and TermIDs,
// and — per pebble count — the table of variable sets D with their
// constraint lists and superset/subset links. It is built once per
// compiled wdPT node and shared by every goroutine. What µ decides — the
// candidate values of each variable, drawn from G's posting lists
// through the unary templates — is recomputed per call into pooled
// scratch. Assignments are not hashed: a set D with candidate lists of
// lengths c₁..c_m owns a block of c₁·…·c_m bits addressed in mixed
// radix by candidate position, so membership, deletion and the forth
// test are bit operations on one flat array.
package pebble

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
)

// ErrTooLarge reports an instance outside what the kernel represents:
// more than 64 free variables (variable sets are uint64 masks), more
// variable sets than maxSubsets, or a closure table over maxCells bits.
var ErrTooLarge = errors.New("pebble: instance too large")

const (
	maxFreeVars = 64
	maxSubsets  = 1 << 20
	maxCells    = 1 << 28 // bits of closure table: 32 MB
	pollEvery   = 1024    // queue pops between context polls
)

// Counters reports the size of one closure computation.
type Counters struct {
	Assignments int // consistent partial assignments enumerated
	Deleted     int // assignments deleted by the closure
	Win         bool
}

// template is one triple of S with at least one free variable.
// code[i] ≥ 0 is a free-variable index; code[i] < 0 refers to the
// game's fixed vector at ^code[i]: a constant TermID, or an X slot of
// the caller's row.
type template struct {
	code [3]int32
	mask uint64 // free variables occurring
}

// Game is (S, X) compiled against one graph, independent of µ. It is
// immutable apart from its lazily built per-k tables and safe for
// concurrent use.
type Game struct {
	target *rdf.Graph
	n      int        // free variables
	tmpls  []template // triples with ≥ 1 free variable
	ground [][3]int32 // triples over the fixed vector only
	unary  [][]int32  // per free variable: templates it alone is free in
	consts []rdf.TermID
	xslots []int32 // fixed[len(consts)+j] = row[xslots[j]]
	absent bool    // a constant of S is not in G: every game is lost

	mu     sync.Mutex
	tables map[int]*table

	domOnce sync.Once
	dom     []rdf.TermID
}

// table is the per-k structure of a game: every variable set D with
// |D| ≤ k, in generation order (subs[0] = ∅).
type table struct {
	k    int
	subs []subset
}

type subset struct {
	vars []int32 // sorted free-variable indices
	voff int32   // offset of this set's strides in run.stride
	// cons are the non-unary templates inside D, ordered by the position
	// of their highest variable; cons[lvl[i-1]:lvl[i]] become checkable
	// once vars[i] is assigned.
	cons []int32
	lvl  []int32
	up   []int32 // per free variable x: index of D ∪ {x}; -1 if x ∈ D or |D| = k
	down []int32 // per i: index of D \ {vars[i]}
}

// Compile lowers the triples s with distinguished variables x against
// the target graph. Distinguished variables are read from the caller's
// row at Decide time, at the slots layout gives them: layout must hold
// every one that occurs in s, and is only read. All other variables of
// s are free. It fails with ErrTooLarge beyond 64 free variables.
func Compile(s []rdf.Triple, x []rdf.Term, target *rdf.Graph, layout *rdf.SlotLayout) (*Game, error) {
	gm := &Game{target: target, tables: map[int]*table{}}
	dict := target.Dict()
	// The fixed vector is the constants of S followed by the
	// distinguished variables in order of first occurrence.
	constAt := map[string]int32{}
	for _, t := range s {
		for _, term := range t.Terms() {
			if _, seen := constAt[term.Value]; term.IsVar() || seen {
				continue
			}
			id, ok := dict.LookupIRI(term.Value)
			if !ok {
				gm.absent = true
			}
			constAt[term.Value] = int32(len(gm.consts))
			gm.consts = append(gm.consts, id)
		}
	}
	isX := make(map[string]bool, len(x))
	for _, v := range x {
		isX[v.Value] = v.IsVar()
	}
	xAt := map[string]int32{}
	free := map[string]int32{}
	for _, t := range s {
		var tp template
		for i, term := range t.Terms() {
			switch {
			case !term.IsVar():
				tp.code[i] = ^constAt[term.Value]
			case isX[term.Value]:
				j, ok := xAt[term.Value]
				if !ok {
					slot, ok := layout.Slot(term.Value)
					if !ok {
						return nil, fmt.Errorf("pebble: distinguished variable ?%s has no slot in the layout", term.Value)
					}
					j = int32(len(gm.consts) + len(gm.xslots))
					xAt[term.Value] = j
					gm.xslots = append(gm.xslots, int32(slot))
				}
				tp.code[i] = ^j
			default:
				v, ok := free[term.Value]
				if !ok {
					v = int32(len(free))
					free[term.Value] = v
				}
				tp.code[i] = v
				tp.mask |= 1 << (uint(v) % maxFreeVars) // out-of-range indices are rejected below
			}
		}
		if tp.mask == 0 {
			gm.ground = append(gm.ground, tp.code)
		} else {
			gm.tmpls = append(gm.tmpls, tp)
		}
	}
	if len(free) > maxFreeVars {
		return nil, fmt.Errorf("%w: %d free variables, at most %d are supported", ErrTooLarge, len(free), maxFreeVars)
	}
	gm.n = len(free)
	gm.unary = make([][]int32, gm.n)
	for ti, tp := range gm.tmpls {
		if bits.OnesCount64(tp.mask) == 1 {
			v := bits.TrailingZeros64(tp.mask)
			gm.unary[v] = append(gm.unary[v], int32(ti))
		}
	}
	return gm, nil
}

// FreeVars returns the number of free variables of the game.
func (gm *Game) FreeVars() int { return gm.n }

// fixedVal resolves an entry of the fixed vector under the row.
func (gm *Game) fixedVal(j int32, row rdf.Row) rdf.TermID {
	if int(j) < len(gm.consts) {
		return gm.consts[j]
	}
	return row[gm.xslots[int(j)-len(gm.consts)]]
}

// bound reports whether the row binds every distinguished variable
// occurring in S.
func (gm *Game) bound(row rdf.Row) bool {
	for _, s := range gm.xslots {
		if int(s) >= len(row) || row[s] == rdf.Unbound {
			return false
		}
	}
	return true
}

// unaryPattern renders unary template ti with its free variable left
// open (as one positional variable) and everything else resolved.
func (gm *Game) unaryPattern(ti int32, row rdf.Row) rdf.IDTriple {
	var p rdf.IDTriple
	for i, c := range gm.tmpls[ti].code {
		if c >= 0 {
			p[i] = rdf.VarID(0)
		} else {
			p[i] = gm.fixedVal(^c, row)
		}
	}
	return p
}

// Cells estimates the work of Decide(k, row) as the size of its
// closure table: the sum over variable sets of size ≤ k of the product
// of their candidate counts, with each count bounded from above by the
// shortest posting list among the variable's unary templates (the full
// domain when it has none). The sum is the k-truncated elementary
// symmetric polynomial of the counts, so it costs O(n·k) and no set is
// enumerated. The result saturates at math.MaxInt64. The row must bind
// every distinguished variable.
func (gm *Game) Cells(k int, row rdf.Row) int64 {
	if gm.absent {
		return 1
	}
	// e[j] is the sum over j-sets of the product of their counts.
	var buf [8]int64
	e := buf[:]
	if k+1 > len(buf) {
		e = make([]int64, k+1)
	}
	e = e[:k+1]
	e[0] = 1
	for v := 0; v < gm.n; v++ {
		c := int64(gm.target.DomSize())
		for _, ti := range gm.unary[v] {
			if m := int64(gm.target.MatchCountID(gm.unaryPattern(ti, row))); m < c {
				c = m
			}
		}
		for j := min(k, v+1); j >= 1; j-- {
			e[j] = satAdd(e[j], satMul(e[j-1], c))
		}
	}
	total := int64(0)
	for _, x := range e {
		total = satAdd(total, x)
	}
	return total
}

func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// tableFor returns (building once) the variable-set table for k pebbles.
func (gm *Game) tableFor(k int) (*table, error) {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	if t, ok := gm.tables[k]; ok {
		return t, nil
	}
	// Count first: Σ_{i ≤ k} C(n, i) must stay representable.
	count, c := int64(0), int64(1)
	for i := 0; i <= k && i <= gm.n; i++ {
		count = satAdd(count, c)
		c = satMul(c, int64(gm.n-i)) / int64(i+1)
		if count > maxSubsets {
			return nil, fmt.Errorf("%w: more than %d variable sets of size ≤ %d over %d free variables", ErrTooLarge, maxSubsets, k, gm.n)
		}
	}
	t := &table{k: k, subs: make([]subset, 0, count)}
	index := make(map[uint64]int32, count)
	masks := make([]uint64, 0, count)
	var vars []int32
	voff := int32(0)
	var gen func(start int, mask uint64)
	gen = func(start int, mask uint64) {
		index[mask] = int32(len(t.subs))
		masks = append(masks, mask)
		t.subs = append(t.subs, subset{vars: append([]int32(nil), vars...), voff: voff})
		voff += int32(len(vars))
		if len(vars) == k {
			return
		}
		for v := start; v < gm.n; v++ {
			vars = append(vars, int32(v))
			gen(v+1, mask|1<<uint(v))
			vars = vars[:len(vars)-1]
		}
	}
	gen(0, 0)
	for si := range t.subs {
		s := &t.subs[si]
		mask := masks[si]
		s.lvl = make([]int32, len(s.vars))
		for i, v := range s.vars {
			for ti, tp := range gm.tmpls {
				// Highest variable of the template is v, all of it inside D,
				// and it is not a unary template (those define the candidates).
				if tp.mask&^mask == 0 && tp.mask&(tp.mask-1) != 0 && bits.Len64(tp.mask)-1 == int(v) {
					s.cons = append(s.cons, int32(ti))
				}
			}
			s.lvl[i] = int32(len(s.cons))
		}
		s.down = make([]int32, len(s.vars))
		for i, v := range s.vars {
			s.down[i] = index[mask&^(1<<uint(v))]
		}
		if len(s.vars) < k {
			s.up = make([]int32, gm.n)
			for x := 0; x < gm.n; x++ {
				s.up[x] = -1
				if mask&(1<<uint(x)) == 0 {
					s.up[x] = index[mask|1<<uint(x)]
				}
			}
		}
	}
	gm.tables[k] = t
	return t, nil
}

// domain returns dom(G) as sorted IDs, materialised once per game.
func (gm *Game) domain() []rdf.TermID {
	gm.domOnce.Do(func() { gm.dom = gm.target.DomIDs() })
	return gm.dom
}

// Decide reports whether the Duplicator wins the k-pebble game on the
// compiled (S, X), the target graph and the µ held by row, which must
// bind every distinguished variable (an unbound one loses the game, as
// a mapping outside dom(µ) = X does). k must be at least 2. The error
// is ctx.Err() when the context ended the closure, or ErrTooLarge.
func (gm *Game) Decide(ctx context.Context, k int, row rdf.Row) (Counters, error) {
	return gm.decide(ctx, k, row, true)
}

func (gm *Game) decide(ctx context.Context, k int, row rdf.Row, prune bool) (Counters, error) {
	if k < 2 {
		panic(fmt.Sprintf("pebble: k must be ≥ 2, got %d", k))
	}
	if gm.absent || !gm.bound(row) {
		return Counters{}, nil
	}
	for _, code := range gm.ground {
		tr := rdf.IDTriple{gm.fixedVal(^code[0], row), gm.fixedVal(^code[1], row), gm.fixedVal(^code[2], row)}
		if !gm.target.ContainsID(tr) {
			// A fully-instantiated triple of S is absent from G: even the
			// empty configuration is not a partial homomorphism.
			return Counters{}, nil
		}
	}
	if gm.n == 0 {
		// vars(S) \ X = ∅: by equation (1) of the paper the game
		// coincides with plain homomorphism, verified just above.
		return Counters{Win: true}, nil
	}
	tab, err := gm.tableFor(k)
	if err != nil {
		return Counters{}, err
	}
	r := runPool.Get().(*run)
	defer runPool.Put(r)
	r.gm, r.tab, r.row, r.prune = gm, tab, row, prune
	r.enumerated, r.deleted, r.lost = 0, 0, false
	err = r.closure(ctx)
	r.gm, r.tab, r.row = nil, nil, nil
	return Counters{Assignments: r.enumerated, Deleted: r.deleted, Win: err == nil && !r.lost}, err
}

// run is the µ-dependent state of one closure, pooled across calls.
type run struct {
	gm    *Game
	tab   *table
	row   rdf.Row
	prune bool

	cands  [][]rdf.TermID // per variable: candidate values
	flat   []rdf.TermID   // backing store of the pruned candidate lists
	vals   []rdf.TermID   // current value per variable, while filtering and filling
	stride []int          // per (set, position): mixed-radix stride
	off    []int          // per set: first bit of its block
	alive  []uint64
	queue  []cell
	pos    []int32 // scratch: candidate positions of one assignment
	sub    []int32 // scratch: positions of a restriction

	enumerated, deleted int
	lost                bool // the empty assignment was deleted
}

type cell struct {
	set int32
	idx int // within the set's block
}

var runPool = sync.Pool{New: func() any { return new(run) }}

func (r *run) closure(ctx context.Context) error {
	r.candidates()
	if err := r.layout(); err != nil {
		return err
	}
	for si := range r.tab.subs {
		if si%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r.fill(int32(si))
	}
	// Forth condition, once for every assignment that can still grow.
	for si := range r.tab.subs {
		s := &r.tab.subs[si]
		if s.up == nil {
			continue
		}
		if si%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		size := r.size(int32(si))
		for idx := 0; idx < size && !r.lost; idx++ {
			if !r.get(r.off[si] + idx) {
				continue
			}
			pos := r.decode(s, idx, r.pos)
			for x := int32(0); x < int32(r.gm.n); x++ {
				if s.up[x] >= 0 && !r.hasExtension(s, pos, x) {
					r.remove(int32(si), idx)
					break
				}
			}
		}
	}
	return r.propagate(ctx)
}

// candidates computes the per-variable candidate lists: for a variable
// with unary templates, the values of its shortest posting list that
// satisfy the others; the full domain otherwise (or always, without
// pruning — the ablation).
func (r *run) candidates() {
	gm := r.gm
	r.cands = r.cands[:0]
	r.flat = r.flat[:0]
	r.vals = grow(r.vals, gm.n)
	for v := 0; v < gm.n; v++ {
		us := gm.unary[v]
		if len(us) == 0 || !r.prune {
			r.cands = append(r.cands, gm.domain())
			continue
		}
		best, bestPat, bestN := us[0], rdf.IDTriple{}, -1
		for _, ti := range us {
			p := gm.unaryPattern(ti, r.row)
			if n := gm.target.MatchCountID(p); bestN < 0 || n < bestN {
				best, bestPat, bestN = ti, p, n
			}
		}
		at := 0
		for gm.tmpls[best].code[at] < 0 {
			at++
		}
		start := len(r.flat)
		// The base's candidates, then the delta tier's and the
		// overlay's: insertion order.
		base, delta, tail := gm.target.LookupSegmentsID(bestPat)
		exact := rdf.ExactPattern(bestPat)
		for _, seg := range [3][]rdf.IDTriple{base, delta, tail} {
		next:
			for _, t := range seg {
				if !exact && !rdf.MatchesPatternID(bestPat, t) {
					continue
				}
				r.vals[v] = t[at]
				for _, ti := range us {
					if ti != best && !gm.target.ContainsID(r.triple(ti)) {
						continue next
					}
				}
				r.flat = append(r.flat, t[at])
			}
		}
		r.cands = append(r.cands, r.flat[start:len(r.flat):len(r.flat)])
	}
}

// triple renders template ti under the current values of its free
// variables (r.vals) and the row.
func (r *run) triple(ti int32) rdf.IDTriple {
	var tr rdf.IDTriple
	for i, c := range r.gm.tmpls[ti].code {
		if c >= 0 {
			tr[i] = r.vals[c]
		} else {
			tr[i] = r.gm.fixedVal(^c, r.row)
		}
	}
	return tr
}

// layout sizes every set's block of the closure table and clears it.
func (r *run) layout() error {
	subs := r.tab.subs
	last := &subs[len(subs)-1]
	r.stride = grow(r.stride, int(last.voff)+len(last.vars))
	r.off = grow(r.off, len(subs)+1)
	total := 0
	for si := range subs {
		s := &subs[si]
		r.off[si] = total
		size := 1
		for i := len(s.vars) - 1; i >= 0; i-- {
			r.stride[int(s.voff)+i] = size
			size *= len(r.cands[s.vars[i]])
			if size > maxCells {
				return fmt.Errorf("%w: closure table over %d bits", ErrTooLarge, maxCells)
			}
		}
		if total += size; total > maxCells {
			return fmt.Errorf("%w: closure table over %d bits", ErrTooLarge, maxCells)
		}
	}
	r.off[len(subs)] = total
	r.alive = grow(r.alive, (total+63)/64)
	clear(r.alive)
	r.pos = grow(r.pos, r.tab.k)
	r.sub = grow(r.sub, r.tab.k)
	r.queue = r.queue[:0]
	return nil
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (r *run) size(si int32) int { return r.off[si+1] - r.off[si] }

func (r *run) get(bit int) bool { return r.alive[bit>>6]&(1<<(uint(bit)&63)) != 0 }

// fill marks the consistent assignments of set si: those satisfying
// every template fully inside it. Unary templates hold by construction
// of the candidate lists when pruning is on.
func (r *run) fill(si int32) {
	s := &r.tab.subs[si]
	if len(s.vars) == 0 || len(s.cons) == 0 && r.prune {
		lo, n := r.off[si], r.size(si)
		for b := lo; b < lo+n; b++ {
			r.alive[b>>6] |= 1 << (uint(b) & 63)
		}
		r.enumerated += n
		return
	}
	r.fillFrom(s, 0, r.off[si])
}

func (r *run) fillFrom(s *subset, i int, base int) {
	v := s.vars[i]
	stride := r.stride[int(s.voff)+i]
	lo := int32(0)
	if i > 0 {
		lo = s.lvl[i-1]
	}
	cons := s.cons[lo:s.lvl[i]]
candidates:
	for a, val := range r.cands[v] {
		r.vals[v] = val
		if !r.prune {
			for _, ti := range r.gm.unary[v] {
				if !r.gm.target.ContainsID(r.triple(ti)) {
					continue candidates
				}
			}
		}
		for _, ti := range cons {
			if !r.gm.target.ContainsID(r.triple(ti)) {
				continue candidates
			}
		}
		bit := base + a*stride
		if i+1 < len(s.vars) {
			r.fillFrom(s, i+1, bit)
			continue
		}
		r.alive[bit>>6] |= 1 << (uint(bit) & 63)
		r.enumerated++
	}
}

// decode splits a block index into candidate positions, one per
// variable of the set.
func (r *run) decode(s *subset, idx int, into []int32) []int32 {
	into = into[:len(s.vars)]
	for i := range s.vars {
		st := r.stride[int(s.voff)+i]
		into[i] = int32(idx / st)
		idx %= st
	}
	return into
}

// superBase locates, inside the block of D ∪ {x}, the assignments
// extending the one at pos: first bit, stride of x, candidate count.
func (r *run) superBase(s *subset, pos []int32, x int32) (sup int32, base, stride, n int) {
	sup = s.up[x]
	S := &r.tab.subs[sup]
	j := 0
	for i, v := range S.vars {
		if v == x {
			stride = r.stride[int(S.voff)+i]
			continue
		}
		base += int(pos[j]) * r.stride[int(S.voff)+i]
		j++
	}
	return sup, base, stride, len(r.cands[x])
}

// hasExtension reports whether some value of x extends the assignment
// within the surviving family.
func (r *run) hasExtension(s *subset, pos []int32, x int32) bool {
	sup, base, stride, n := r.superBase(s, pos, x)
	bit := r.off[sup] + base
	for a := 0; a < n; a++ {
		if r.get(bit) {
			return true
		}
		bit += stride
	}
	return false
}

// remove deletes an assignment and enqueues it for propagation.
func (r *run) remove(si int32, idx int) {
	bit := r.off[si] + idx
	r.alive[bit>>6] &^= 1 << (uint(bit) & 63)
	r.deleted++
	if si == 0 {
		r.lost = true
		return
	}
	r.queue = append(r.queue, cell{set: si, idx: idx})
}

// propagate drains the deletion queue: upward (every superset
// assignment extending a deleted one violates restriction closure) and
// downward (a restriction may have lost its last extension witness).
// It stops as soon as the empty assignment dies.
func (r *run) propagate(ctx context.Context) error {
	for pops := 1; len(r.queue) > 0 && !r.lost; pops++ {
		if pops%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		s := &r.tab.subs[d.set]
		pos := r.decode(s, d.idx, r.pos)

		if s.up != nil {
			for y := int32(0); y < int32(r.gm.n); y++ {
				if s.up[y] < 0 {
					continue
				}
				sup, base, stride, n := r.superBase(s, pos, y)
				for a := 0; a < n; a++ {
					if r.get(r.off[sup] + base) {
						r.remove(sup, base)
					}
					base += stride
				}
			}
		}

		for i, y := range s.vars {
			sub := &r.tab.subs[s.down[i]]
			rest := append(append(r.sub[:0], pos[:i]...), pos[i+1:]...)
			idx := 0
			for j, p := range rest {
				idx += int(p) * r.stride[int(sub.voff)+j]
			}
			if r.get(r.off[s.down[i]]+idx) && !r.hasExtension(sub, rest, y) {
				r.remove(s.down[i], idx)
			}
		}
	}
	return nil
}

// Decide reports whether (S, X) →ᵏ_µ G, i.e. whether the Duplicator
// wins the existential k-pebble game on (g.S, g.X), target and µ.
// k must be at least 2. µ must bind every distinguished variable of g
// that occurs in g.S. It compiles the game per call — callers deciding
// many µ against one (S, X) hold a Game — and, like the k < 2 check,
// panics with ErrTooLarge on an instance the kernel cannot represent.
func Decide(k int, g hom.GTGraph, mu rdf.Mapping, target *rdf.Graph) bool {
	return oneShot(k, g, mu, target, true).Win
}

// DecideStats is Decide instrumented with counters.
func DecideStats(k int, g hom.GTGraph, mu rdf.Mapping, target *rdf.Graph) Counters {
	return oneShot(k, g, mu, target, true)
}

func oneShot(k int, g hom.GTGraph, mu rdf.Mapping, target *rdf.Graph, prune bool) Counters {
	if k < 2 {
		panic(fmt.Sprintf("pebble: k must be ≥ 2, got %d", k))
	}
	for _, x := range g.X {
		if !mu.Defined(x) {
			return Counters{}
		}
	}
	// Every variable of S that µ binds is held fixed, as substituting µ
	// into S would.
	var fixed []rdf.Term
	held := rdf.NewMapping()
	for _, v := range g.S.Vars() {
		if img, ok := mu.Lookup(v); ok {
			fixed = append(fixed, v)
			held[v.Value] = img.Value
		}
	}
	layout := rdf.NewSlotLayout()
	for _, v := range fixed {
		layout.Intern(v.Value)
	}
	gm, err := Compile(g.S, fixed, target, layout)
	if err != nil {
		panic(err)
	}
	row, ok := layout.EncodeMapping(target.Dict(), held)
	if !ok {
		return Counters{} // µ maps into a value G does not mention
	}
	c, err := gm.decide(context.Background(), k, row, prune)
	if err != nil {
		panic(err)
	}
	return c
}

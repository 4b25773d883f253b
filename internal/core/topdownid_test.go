package core_test

import (
	"math/rand"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Cross-validation of the compiled row pipeline: EnumerateTopDownForestID
// rows, decoded at the boundary, must agree exactly with the string
// top-down enumerator and with the compositional semantics on random
// well-designed patterns — including OPT-heavy trees whose solutions
// leave slots unbound — and the pull-based iterator must honour early
// termination.

// optHeavyPattern draws patterns biased towards OPT so that solution
// mappings routinely have partial domains (unbound slots in rows).
func optHeavyPattern(rng *rand.Rand, depth int) sparql.Pattern {
	if depth == 0 || rng.Intn(4) == 0 {
		return sparql.Triple{T: randTriple(rng)}
	}
	l := optHeavyPattern(rng, depth-1)
	r := optHeavyPattern(rng, depth-1)
	if rng.Intn(4) == 0 {
		return sparql.And(l, r)
	}
	return sparql.Opt(l, r)
}

func checkRowAgreement(t *testing.T, p sparql.Pattern, g *rdf.Graph, label string) {
	t.Helper()
	f, err := ptree.WDPF(p)
	if err != nil {
		t.Fatalf("%s: wdpf(%s): %v", label, p, err)
	}
	idSet := core.EnumerateTopDownForestID(f, g)
	decoded := idSet.Decode(g.Dict())

	// Pin to the string top-down enumerator.
	want := rdf.NewMappingSet()
	for _, tr := range f {
		want.AddAll(core.EnumerateTopDown(tr, g))
	}
	if decoded.Len() != want.Len() {
		t.Fatalf("%s: %s: rows %d, string top-down %d\nrows=%v\nstring=%v",
			label, p, decoded.Len(), want.Len(), decoded.Slice(), want.Slice())
	}
	for _, mu := range want.Slice() {
		if !decoded.Contains(mu) {
			t.Fatalf("%s: %s: row pipeline missing %s", label, p, mu)
		}
	}

	// Pin to the compositional semantics.
	ref := sparql.Eval(p, g)
	if decoded.Len() != ref.Len() {
		t.Fatalf("%s: %s: rows %d, compositional %d", label, p, decoded.Len(), ref.Len())
	}
	for _, mu := range ref.Slice() {
		if !decoded.Contains(mu) {
			t.Fatalf("%s: %s: row pipeline missing compositional solution %s", label, p, mu)
		}
	}

	// Parallel enumeration must reproduce the sequential set exactly,
	// including insertion order (work items merge in sequential order).
	par := core.EnumerateTopDownParallel(f, g, 4)
	if par.Len() != idSet.Len() {
		t.Fatalf("%s: parallel %d rows, sequential %d", label, par.Len(), idSet.Len())
	}
	for i := 0; i < par.Len(); i++ {
		a, b := par.Row(i), idSet.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: parallel row %d differs: %v vs %v", label, i, a, b)
			}
		}
	}
}

func TestRowPipelineAgainstStringAndCompositional(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	used := 0
	for tries := 0; used < 120 && tries < 6000; tries++ {
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		checkRowAgreement(t, p, randData(rng), "mixed")
	}
	if used < 60 {
		t.Fatalf("generator too weak: %d", used)
	}
}

func TestRowPipelineOptHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	used := 0
	for tries := 0; used < 120 && tries < 8000; tries++ {
		p := optHeavyPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		checkRowAgreement(t, p, randData(rng), "opt-heavy")
	}
	if used < 60 {
		t.Fatalf("generator too weak: %d", used)
	}
}

func TestRowPipelineWithUnionForests(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	used := 0
	for tries := 0; used < 60 && tries < 6000; tries++ {
		p := sparql.Union(randPattern(rng, 2), randPattern(rng, 2))
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		checkRowAgreement(t, p, randData(rng), "union")
	}
	if used < 30 {
		t.Fatalf("generator too weak: %d", used)
	}
}

// The pull-based iterator must stop as soon as yield returns false and
// must hand out rows that belong to the full solution set.
func TestRowIteratorEarlyTermination(t *testing.T) {
	star := gen.OptStar(3)
	g := gen.ItemCatalog(20, 3, 5)
	f := ptree.Forest{star}
	fp := core.CompileForest(f, g)
	full := fp.EnumerateSet()
	if full.Len() != 20 {
		t.Fatalf("star catalog: %d solutions, want 20", full.Len())
	}
	for _, limit := range []int{0, 1, 5, 19, 20, 100} {
		var got []rdf.Row
		calls := 0
		fp.Rows(func(r rdf.Row) bool {
			calls++
			got = append(got, r.Clone())
			return limit == 0 || len(got) < limit
		})
		want := limit
		if limit == 0 || limit > full.Len() {
			want = full.Len()
		}
		// yield returning false stops the stream immediately: exactly
		// min(limit, total) calls, no overshoot.
		if calls != want {
			t.Fatalf("limit %d: %d yields, want %d", limit, calls, want)
		}
		for _, r := range got {
			if !full.ContainsRow(r) {
				t.Fatalf("limit %d: streamed row %v outside ⟦T⟧G", limit, r)
			}
		}
	}
}

// Streamed rows are only valid during yield; the iterator must reuse
// its working row (documented contract), which this test pins down so
// accidental per-row allocation does not creep back in.
func TestRowIteratorRowAliasing(t *testing.T) {
	chain := gen.OptChain(4)
	g := gen.PathData(8, 4, 3)
	fp := core.CompileForest(ptree.Forest{chain}, g)
	var first rdf.Row
	n := 0
	fp.Rows(func(r rdf.Row) bool {
		if n == 0 {
			first = r // deliberately retained without Clone
		}
		n++
		return true
	})
	if n < 2 {
		t.Skip("workload produced fewer than 2 rows")
	}
	// After enumeration the retained row was reused and then unwound:
	// it must NOT still hold the first solution (that would mean the
	// iterator copies rows per yield).
	set := fp.EnumerateSet()
	if set.Len() != n {
		t.Fatalf("stream %d vs set %d", n, set.Len())
	}
	allUnbound := true
	for _, v := range first {
		if v != rdf.Unbound {
			allUnbound = false
		}
	}
	if !allUnbound {
		t.Fatalf("working row not unwound after enumeration: %v", first)
	}
}

func TestTopDownIDOnForestFamilies(t *testing.T) {
	// F_k forests (multi-tree, shared variables across trees) on the
	// four E3 data configurations.
	for k := 2; k <= 3; k++ {
		f := gen.Fk(k)
		for _, withQ := range []bool{false, true} {
			for _, withClique := range []bool{false, true} {
				g := gen.FkData(k, 4*(k-1), withQ, withClique)
				want := core.EnumerateForest(f, g)
				got := core.EnumerateTopDownForestID(f, g).Decode(g.Dict())
				if got.Len() != want.Len() {
					t.Fatalf("Fk k=%d q=%v clique=%v: rows %d, want %d",
						k, withQ, withClique, got.Len(), want.Len())
				}
				for _, mu := range want.Slice() {
					if !got.Contains(mu) {
						t.Fatalf("Fk k=%d: missing %s", k, mu)
					}
				}
			}
		}
	}
}

func TestEnumerateParallelDegenerate(t *testing.T) {
	// Empty pattern-match: no root homomorphisms, any worker count.
	tr := ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{
		rdf.T(rdf.Var("x"), rdf.IRI("absent"), rdf.Var("y")),
	}})
	g := gen.PathData(4, 0, 1)
	for _, w := range []int{1, 2, 8} {
		if got := core.EnumerateTopDownParallel(ptree.Forest{tr}, g, w).Len(); got != 0 {
			t.Fatalf("workers=%d: %d rows from unmatchable pattern", w, got)
		}
	}
}

package core_test

// Cross-validation of the parallel scheduler at the enumeration layer,
// over the workers × backend cross product: the RowsParallel stream of
// a compiled forest must be byte-identical — content and order — to
// the sequential stream over the unsealed graph, for every worker
// count on the frozen backend and on a frozen base with a live
// overlay, on randomized well-designed forests. Run under -race in
// CI, this doubles as the race check for the worker pool.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// parallelBackends are the sealed backends the parallel scheduler runs
// over (rebuildAs names).
var parallelBackends = []string{"frozen", "overlay"}

// collectParallel materialises the RowsParallel stream of a compiled
// forest as cloned rows.
func collectParallel(f ptree.Forest, g *rdf.Graph, workers int) []rdf.Row {
	var out []rdf.Row
	core.CompileForest(f, g).RowsParallel(context.Background(), workers, func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// Every worker count's stream, on every sealed backend, against the
// sequential map-graph stream.
func TestParallelTimesShardCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tried, used := 0, 0
	for used < 60 && tried < 5000 {
		tried++
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatalf("case %d: wdpf: %v", used, err)
		}
		gm := randData(rng)
		want := collectRows(f, gm) // sequential over the map graph: the pinned stream
		for _, backend := range parallelBackends {
			gb := rebuildAs(gm, backend)
			for _, n := range []int{1, 2, 4} {
				got := collectParallel(f, gb, n)
				if len(got) != len(want) {
					t.Fatalf("case %d (%s): Parallel(%d) on %s: %d rows, want %d",
						used, sparql.Format(p), n, backend, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("case %d (%s): Parallel(%d) on %s: row %d: %v, want %v",
							used, sparql.Format(p), n, backend, i, got[i], want[i])
					}
				}
			}
		}
	}
	if used < 30 {
		t.Fatalf("generator starved: only %d well-designed patterns in %d tries", used, tried)
	}
}

// Early termination through the parallel merge: a Limit-style prefix
// of the stream is a prefix of the sequential map-graph stream, on
// every sealed backend and worker count.
func TestParallelShardPrefixTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tried, used := 0, 0
	for used < 20 && tried < 3000 {
		tried++
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		gm := randData(rng)
		want := collectRows(f, gm)
		if len(want) < 3 {
			continue
		}
		used++
		limit := 1 + rng.Intn(len(want)-1)
		for _, backend := range parallelBackends {
			gb := rebuildAs(gm, backend)
			for _, n := range []int{1, 2, 4} {
				var got []rdf.Row
				core.CompileForest(f, gb).RowsParallel(context.Background(), n, func(r rdf.Row) bool {
					got = append(got, r.Clone())
					return len(got) < limit
				})
				if len(got) != limit {
					t.Fatalf("case %d: Parallel(%d) on %s: early stop yielded %d rows, want %d",
						used, n, backend, len(got), limit)
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("case %d: Parallel(%d) on %s: prefix row %d diverges", used, n, backend, i)
					}
				}
			}
		}
	}
}

package wdsparql

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"wdsparql/internal/sparql"
)

// Allocation gates of the streaming enumeration (CI runs every test
// whose name contains "Alloc" without -race): an execution allocates
// O(nodes) — searchers, continuations, the working row — and nothing
// per candidate or per row.

// starGraph holds n subjects, each with one p-edge and one edge per
// arm predicate, so every subject is a root candidate of (?x p ?y) and
// extends through every arm.
func starGraph(n int, arms ...string) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("s%d", i)
		g.AddTriple(s, "p", fmt.Sprintf("o%d", i))
		for _, a := range arms {
			g.AddTriple(s, a, fmt.Sprintf("%s%d", a, i))
		}
	}
	return g
}

func prepareOn(t *testing.T, g *Graph, query string) *PreparedQuery {
	t.Helper()
	q, err := NewEngine(g).Prepare(sparql.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// The first row costs one path down the search, whatever the root's
// fan-out: no candidate list is built, scored or sorted.
func TestRowsFirstRowAllocsIndependentOfFanout(t *testing.T) {
	const query = `((?x p ?y) OPT (?y q ?z))`
	firstRowBytes := func(n int) uint64 {
		q := prepareOn(t, starGraph(n), query)
		ctx := context.Background()
		run := func() {
			rows := 0
			for range q.Rows(ctx, Limit(1)) {
				rows++
			}
			if rows != 1 {
				t.Fatalf("n=%d: Limit(1) yielded %d rows", n, rows)
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := firstRowBytes(1<<10), firstRowBytes(1<<16)
	if diff := int64(large) - int64(small); diff >= 4<<10 || diff <= -4<<10 {
		t.Fatalf("first row allocates %d B at 1k root candidates, %d B at 64k", small, large)
	}
}

// Draining a 3-arm OPT star allocates the same objects at 1k and at 16k
// rows: children stream off their searchers, nothing is materialised.
func TestRowsDrainAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const query = `((((?x p ?y) OPT (?x q ?a)) OPT (?x r ?b)) OPT (?x s ?c))`
	drainAllocs := func(n int) float64 {
		q := prepareOn(t, starGraph(n, "q", "r", "s"), query)
		ctx := context.Background()
		drain := func() {
			rows := 0
			for range q.Rows(ctx) {
				rows++
			}
			if rows != n {
				t.Fatalf("drain yielded %d rows, want %d", rows, n)
			}
		}
		drain()
		return testing.AllocsPerRun(5, drain)
	}
	small, large := drainAllocs(1<<10), drainAllocs(1<<14)
	if large > small {
		t.Fatalf("drain allocates %.0f objects at 1k rows, %.0f at 16k", small, large)
	}
	t.Logf("%.0f objects per drain", small)
}

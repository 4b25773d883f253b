package wdsparql

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Allocation gates of the streaming enumeration (CI runs every test
// whose name contains "Alloc" without -race): an execution allocates
// O(nodes) — searchers, continuations, the working row — and nothing
// per candidate or per row. Each gate has an overlay twin, where half
// the subjects arrive in one ApplyDelta batch on the sealed base: reads
// walk the base and overlay segments in place, so the twin's budget is
// the sealed one's.

// starTriples lists n subjects, each with one p-edge and one edge per
// arm predicate, so every subject is a root candidate of (?x p ?y) and
// extends through every arm. A subject's triples are contiguous.
func starTriples(n int, arms ...string) []Triple {
	ts := make([]Triple, 0, n*(1+len(arms)))
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("s%d", i))
		ts = append(ts, rdf.T(s, rdf.IRI("p"), rdf.IRI(fmt.Sprintf("o%d", i))))
		for _, a := range arms {
			ts = append(ts, rdf.T(s, rdf.IRI(a), rdf.IRI(fmt.Sprintf("%s%d", a, i))))
		}
	}
	return ts
}

// starEngine serves the star over n (even) subjects. With overlay, the
// second half of the subjects come from one ApplyDelta batch on the
// sealed first half.
func starEngine(n int, overlay bool, arms ...string) *Engine {
	ts := starTriples(n, arms...)
	cut := len(ts)
	if overlay {
		cut = len(ts) / 2
	}
	e := NewEngine(rdf.GraphOf(ts[:cut]...))
	if overlay {
		e = e.ApplyDelta(ts[cut:])
		if e.OverlayLen() != len(ts)-cut {
			panic("starEngine: the batch did not land in the overlay")
		}
	}
	return e
}

func prepareOn(t *testing.T, e *Engine, query string) *PreparedQuery {
	t.Helper()
	q, err := e.Prepare(sparql.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// The first row costs one path down the search, whatever the root's
// fan-out: no candidate list is built, scored or sorted.
func TestRowsFirstRowAllocsIndependentOfFanout(t *testing.T) {
	checkFirstRowAllocs(t, false)
}

// Over an overlay the root's count adds the two posting-list lengths
// and its candidates are walked as two segments: nothing is copied.
func TestRowsFirstRowAllocsIndependentOfFanoutOverlay(t *testing.T) {
	checkFirstRowAllocs(t, true)
}

func checkFirstRowAllocs(t *testing.T, overlay bool) {
	const query = `((?x p ?y) OPT (?y q ?z))`
	firstRowBytes := func(n int) uint64 {
		q := prepareOn(t, starEngine(n, overlay), query)
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
	checkDrainAllocs(t, false, starQuery, 1, "q", "r", "s")
}

// The drain gate with half the star in the overlay.
func TestRowsDrainAllocsFlatOverlay(t *testing.T) {
	checkDrainAllocs(t, true, starQuery, 1, "q", "r", "s")
}

// Draining a UNION drops cross-tree duplicates by a membership test, not
// a set of the rows already emitted, so it allocates no more at 16k
// subjects than at 1k — whether the slot masks decide every row (the
// arms bind different optional variables) or every second-arm row
// reaches the exact decision (both arms bind ?a).
func TestUnionDrainAllocsFlat(t *testing.T) {
	checkUnionDrainAllocs(t, false)
}

// The union drain gate with half the star in the overlay.
func TestUnionDrainAllocsFlatOverlay(t *testing.T) {
	checkUnionDrainAllocs(t, true)
}

func checkUnionDrainAllocs(t *testing.T, overlay bool) {
	for _, query := range []string{
		`(((?x p ?y) OPT (?x q ?a)) UNION ((?x p ?y) OPT (?x r ?b)))`, // mask path
		`(((?x p ?y) OPT (?x q ?a)) UNION ((?x p ?y) OPT (?x r ?a)))`, // exact path
	} {
		checkDrainAllocs(t, overlay, query, 2, "q", "r")
	}
}

const starQuery = `((((?x p ?y) OPT (?x q ?a)) OPT (?x r ?b)) OPT (?x s ?c))`

// checkDrainAllocs drains query over a star with the given arms, which
// must yield rowsPer rows per subject, and fails when the drain
// allocates more objects at 16k subjects than at 1k.
func checkDrainAllocs(t *testing.T, overlay bool, query string, rowsPer int, arms ...string) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	drainAllocs := func(n int) float64 {
		q := prepareOn(t, starEngine(n, overlay, arms...), query)
		ctx := context.Background()
		drain := func() {
			rows := 0
			for range q.Rows(ctx) {
				rows++
			}
			if rows != rowsPer*n {
				t.Fatalf("%s: drain yielded %d rows, want %d", query, rows, rowsPer*n)
			}
		}
		drain()
		return testing.AllocsPerRun(5, drain)
	}
	small, large := drainAllocs(1<<10), drainAllocs(1<<14)
	if large > small {
		t.Errorf("%s: drain allocates %.0f objects at 1k subjects, %.0f at 16k", query, small, large)
		return
	}
	t.Logf("%s: %.0f objects per drain", query, small)
}

// A DISTINCT drain keeps a set of the projected rows it has emitted,
// which grows with the answer; it may cost one arena and one index
// doubling per doubling of the set, nothing per row. The star's
// (?o, ?c) pairs are all distinct, so the set holds every row.
func TestDistinctDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const query = `SELECT DISTINCT ?o ?c WHERE ((?x p ?o) AND (?x q ?c))`
	drainAllocs := func(n int) float64 {
		q := prepareOn(t, starEngine(n, false, "q"), query)
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
	const doublings = 4 // 1k → 16k rows
	small, large := drainAllocs(1<<10), drainAllocs(1<<14)
	if large-small > 2*doublings {
		t.Fatalf("DISTINCT drain allocates %.0f objects at 1k rows, %.0f at 16k: more than 2 per doubling", small, large)
	}
	t.Logf("%.0f objects per drain at 1k rows, %.0f at 16k", small, large)
}

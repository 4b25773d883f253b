package wdsparql

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdsparql/internal/rdf/backendtest"
)

// deltaSPO mints the i-th synthetic triple of the corpus; all share
// predicate p so one prepared pattern enumerates everything.
func deltaSPO(i int) (s, p, o string) {
	return fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)
}

func deltaTriple(i int) Triple {
	s, p, o := deltaSPO(i)
	return Triple{S: IRI(s), P: IRI(p), O: IRI(o)}
}

// deltaGraph builds the first n corpus triples into a fresh graph.
func deltaGraph(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddTriple(deltaSPO(i))
	}
	return g
}

// TestEngineApplyDelta pins the generation contract: the delta is
// visible only in the returned engine, the receiver is untouched, and
// the merged stream is identical to an engine built from scratch.
func TestEngineApplyDelta(t *testing.T) {
	delta := make([]Triple, 15)
	for i := range delta {
		delta[i] = deltaTriple(40 + i)
	}

	e0 := NewEngine(deltaGraph(40))
	e1 := e0.ApplyDelta(delta)
	if e0.OverlayLen() != 0 || e0.Graph().Len() != 40 {
		t.Fatalf("ApplyDelta mutated the receiver: overlay=%d len=%d", e0.OverlayLen(), e0.Graph().Len())
	}
	if e1.OverlayLen() != 15 || e1.Graph().Len() != 55 {
		t.Fatalf("new generation overlay=%d len=%d, want 15 and 55", e1.OverlayLen(), e1.Graph().Len())
	}

	scratch := NewEngine(deltaGraph(55))
	if !backendtest.EqualStreams(scratch.Graph(), e1.Graph()) {
		t.Fatal("delta generation diverges from rebuilt graph")
	}

	// Refreeze: same stream, no overlay.
	e2 := e1.Refreeze()
	if e2.OverlayLen() != 0 || e2.Graph().HasOverlay() {
		t.Fatalf("Refreeze left an overlay of %d", e2.OverlayLen())
	}
	if !backendtest.EqualStreams(scratch.Graph(), e2.Graph()) {
		t.Fatal("refrozen generation diverges from rebuilt graph")
	}
	if e1.OverlayLen() != 15 {
		t.Fatal("Refreeze mutated its receiver")
	}

	// Queries on each generation see exactly that generation.
	ctx := context.Background()
	for _, tc := range []struct {
		e    *Engine
		want int
	}{{e0, 40}, {e1, 55}, {e2, 55}} {
		q, err := tc.e.PrepareText(`(?x p ?y)`)
		if err != nil {
			t.Fatal(err)
		}
		n, err := q.Count(ctx)
		if err != nil || n != tc.want {
			t.Fatalf("Count = %d (err %v), want %d", n, err, tc.want)
		}
	}
}

// Generations keep every engine option: the planner and filter
// placement of a delta or refrozen generation are its ancestor's, on
// the defaults and on explicit overrides alike.
func TestEngineGenerationsKeepOptions(t *testing.T) {
	const text = `((?x p ?y) FILTER (?y = o3))`
	for _, on := range []bool{true, false} {
		e0 := NewEngine(deltaGraph(10), WithPlanner(on), WithFilterPushdown(on))
		e1 := e0.ApplyDelta([]Triple{deltaTriple(10)})
		for name, e := range map[string]*Engine{"delta": e1, "refrozen": e1.Refreeze()} {
			ep := e.MustPrepare(MustParsePattern(text)).Explain()
			want := "[deferred]"
			if on {
				want = "[pushed]"
			}
			if ep.Planner != on || len(ep.Trees[0].Filters) != 1 || !strings.HasSuffix(ep.Trees[0].Filters[0], want) {
				t.Fatalf("%s generation of a planner=%v pushdown=%v engine explains planner=%v filters=%v",
					name, on, on, ep.Planner, ep.Trees[0].Filters)
			}
		}
	}
}

// TestEngineIngestWhileQueryingSoak is the concurrent
// ingest-while-querying soak (run under -race in CI): reader
// goroutines continuously stream PreparedQuery.Rows from whatever
// generation is current while a writer applies delta batches and
// periodically re-freezes, swapping generations through an atomic
// pointer. Pinned: no reader ever errors or observes a partial batch
// (stream lengths only land on batch boundaries), streams are
// prefix-consistent across generations (ingest only appends, so any
// two captured streams must be prefixes of one another), the final
// generation serves every triple, and no goroutines leak.
func TestEngineIngestWhileQueryingSoak(t *testing.T) {
	const (
		baseN      = 500
		batches    = 40
		batchSize  = 25
		refreezeAt = 8 // batches between refreezes
		readers    = 4
	)
	baseline := runtime.NumGoroutine()

	var cur atomic.Pointer[Engine]
	cur.Store(NewEngine(deltaGraph(baseN)))

	ctx := context.Background()
	var writerDone atomic.Bool
	var mu sync.Mutex
	var longest []uint64 // longest row stream observed, as (s,o) ID pairs

	checkStream := func(got []uint64) error {
		mu.Lock()
		defer mu.Unlock()
		short, long := got, longest
		if len(short) > len(long) {
			short, long = long, short
		}
		for i := range short {
			if short[i] != long[i] {
				return fmt.Errorf("streams diverge at row %d: %x vs %x", i, short[i], long[i])
			}
		}
		if len(got) > len(longest) {
			longest = got
		}
		return nil
	}

	readerErr := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !writerDone.Load() {
				e := cur.Load()
				q, err := e.PrepareText(`(?x p ?y)`)
				if err != nil {
					readerErr <- err
					return
				}
				xs, ok1 := q.Layout().Slot("x")
				ys, ok2 := q.Layout().Slot("y")
				if !ok1 || !ok2 {
					readerErr <- fmt.Errorf("layout is missing x or y")
					return
				}
				var got []uint64
				for row := range q.Rows(ctx) {
					got = append(got, uint64(row[xs])<<32|uint64(row[ys]))
				}
				// Zero dropped rows / no partial batch: every stream
				// length is the base plus a whole number of batches.
				if n := len(got); n < baseN || (n-baseN)%batchSize != 0 {
					readerErr <- fmt.Errorf("stream of %d rows is not base plus whole batches", n)
					return
				}
				if err := checkStream(got); err != nil {
					readerErr <- err
					return
				}
			}
		}()
	}

	next := baseN
	for b := 0; b < batches; b++ {
		batch := make([]Triple, batchSize)
		for i := range batch {
			batch[i] = deltaTriple(next)
			next++
		}
		e := cur.Load().ApplyDelta(batch)
		if (b+1)%refreezeAt == 0 {
			e = e.Refreeze()
			if e.OverlayLen() != 0 {
				t.Errorf("refreeze left overlay of %d", e.OverlayLen())
			}
		}
		cur.Store(e)
		time.Sleep(time.Millisecond) // let readers interleave with swaps
	}
	writerDone.Store(true)
	wg.Wait()
	close(readerErr)
	for err := range readerErr {
		t.Fatal(err)
	}

	// The final generation serves everything, stream-identical to a
	// from-scratch build.
	final := cur.Load()
	q, err := final.PrepareText(`(?x p ?y)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count(ctx)
	if err != nil || n != next {
		t.Fatalf("final Count = %d (err %v), want %d", n, err, next)
	}
	scratch := NewEngine(deltaGraph(next))
	if !backendtest.EqualStreams(scratch.Graph(), final.Graph()) {
		t.Fatal("final generation diverges from rebuilt graph")
	}

	// Zero goroutine leaks from the generation machinery.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

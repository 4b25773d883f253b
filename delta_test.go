package wdsparql

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdsparql/internal/rdf"
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

// Generations keep every engine option: the Ask algorithm and pebble
// bound, the worker-pool default and the query-cache capacity of a
// delta or refrozen generation are its ancestor's; only the cache's
// contents start over, being compiled against the old graph.
func TestEngineGenerationsKeepOptions(t *testing.T) {
	const text = `((?x p ?y) OPT (?y q ?z))`
	e0 := NewEngine(deltaGraph(10), WithAlgorithm(AlgPebble), WithPebbleK(3),
		WithWorkers(3), WithQueryCache(5))
	if _, err := e0.PrepareText(text); err != nil {
		t.Fatal(err)
	}
	e1 := e0.ApplyDelta([]Triple{deltaTriple(10)})
	for name, e := range map[string]*Engine{"delta": e1, "refrozen": e1.Refreeze()} {
		if e.workers != 3 {
			t.Errorf("%s generation runs %d workers by default, want 3", name, e.workers)
		}
		if st := e.QueryCacheStats(); st.Cap != 5 || st.Size != 0 {
			t.Errorf("%s generation's query cache holds %d of %d, want 0 of 5", name, st.Size, st.Cap)
		}
		q, err := e.PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		if ap := q.Explain().Ask; ap.Algorithm != "pebble" || ap.PebbleK != 3 {
			t.Errorf("%s generation decides with %s(k=%d), want pebble(k=3)", name, ap.Algorithm, ap.PebbleK)
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

// Refreeze of a served image with a small overlay seals a delta tier
// over the image instead of rebuilding it: it allocates under a tenth
// of the bytes of a full freeze of the same triples, and the new
// generation's base is the image's own arena. A seal is O(delta +
// NumIRIs) by design (the delta's offset arrays, the sealed occurrence
// table and the dictionary's sealed string table are indexed by
// TermID), so the graph has many triples per IRI, as data graphs do —
// 20,000 nodes under 205,000 triples — not one fresh IRI pair per
// triple, where the NumIRIs term would be the larger one.
func TestRefreezeDeltaTierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const nodes, baseN, overlayN = 20_000, 200_000, 5_000
	rng := rand.New(rand.NewSource(3))
	seen := map[Triple]bool{}
	var ts []Triple
	for len(ts) < baseN+overlayN {
		tr := Triple{S: IRI(fmt.Sprintf("n%d", rng.Intn(nodes))), P: IRI(fmt.Sprintf("p%d", rng.Intn(4))), O: IRI(fmt.Sprintf("n%d", rng.Intn(nodes)))}
		if !seen[tr] {
			seen[tr] = true
			ts = append(ts, tr)
		}
	}
	path := filepath.Join(t.TempDir(), "base.wdsnap")
	if err := rdf.GraphFromTriples(ts[:baseN]).WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	e, snap, err := NewEngineFromSnapshot(path, SnapshotMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	ov := e.ApplyDelta(ts[baseN:])
	bytesOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var refrozen *Engine
	tiered := bytesOf(func() { refrozen = ov.Refreeze() })
	d, all := ov.Graph().Dict().Clone(), slices.Clone(ov.Graph().TriplesID())
	full := bytesOf(func() { rdf.GraphFromEncoded(d, all) })
	t.Logf("Refreeze: %d bytes; full freeze: %d bytes", tiered, full)
	if tiered*10 >= full {
		t.Errorf("Refreeze of a %d-triple overlay allocates %d bytes, a full freeze %d: not under a tenth", overlayN, tiered, full)
	}
	g := refrozen.Graph()
	if g.DeltaLen() != overlayN || g.OverlayLen() != 0 {
		t.Fatalf("refrozen generation: delta %d, overlay %d, want %d and 0", g.DeltaLen(), g.OverlayLen(), overlayN)
	}
	base, _, _ := g.LookupSegmentsID(rdf.IDTriple{rdf.VarID(0), rdf.VarID(1), rdf.VarID(2)})
	if image := e.Graph().TriplesID(); &base[0] != &image[0] {
		t.Fatal("the refrozen generation does not share the image's arena")
	}
	if !slices.Equal(g.TriplesID(), all) {
		t.Fatal("the refrozen generation's triples differ from the ingested sequence")
	}
}

// The fold rule on the generation path: a Refreeze seals into the
// delta tier while that stays smaller than the base and folds the two
// into a fresh base exactly when the delta would reach the base's size.
func TestRefreezeFoldRule(t *testing.T) {
	e := NewEngine(deltaGraph(100))
	next := 100
	apply := func(n int) {
		batch := make([]Triple, n)
		for i := range batch {
			batch[i] = deltaTriple(next)
			next++
		}
		e = e.ApplyDelta(batch).Refreeze()
	}
	for _, step := range []struct{ add, delta int }{
		{60, 60}, // 60 < 100: a delta tier
		{39, 99}, // 99 < 100: rebuilt over the old delta
		{1, 0},   // 100 = 100: folded, the base now holds 200
		{150, 150},
		{50, 0}, // 200 = 200: folded again
	} {
		apply(step.add)
		if g := e.Graph(); g.DeltaLen() != step.delta || g.Len() != next {
			t.Fatalf("after %d triples: delta %d, len %d; want %d and %d", next, g.DeltaLen(), g.Len(), step.delta, next)
		}
	}
	if !backendtest.EqualStreams(NewEngine(deltaGraph(next)).Graph(), e.Graph()) {
		t.Fatal("tiered generation diverges from a rebuilt graph")
	}
}

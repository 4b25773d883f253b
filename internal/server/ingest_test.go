package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdsparql"
)

// POST /ingest contract tests, all run under -race in CI: batch-atomic
// visibility, NDJSON progress, corruption abort (truncated gzip, bad
// syntax) with no partial batch applied, writer mutual exclusion
// (ingest×ingest → 409, ingest×reload → 503), re-freeze behind live
// readers, and the HTTP-level ingest-while-querying soak.

func ingestBody(from, to int) string {
	var sb strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&sb, "s%d p o%d .\n", i, i)
	}
	return sb.String()
}

func postIngest(t *testing.T, url, body string) (*http.Response, []map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/n-triples", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	return resp, lines
}

// countRows counts the p-edges visible through /sparql (serverStats
// and countBindings live in reload_test.go).
func countRows(t *testing.T, url string) int {
	t.Helper()
	return countBindings(t, url, `(?x p ?y)`)
}

// TestIngestAppliesBatches pins the happy path: batches stream in,
// progress lines report them, queries see the new triples, and /stats
// carries the ingest section.
func TestIngestAppliesBatches(t *testing.T) {
	_, url := startServer(t, Config{Engine: testEngine(t, 100), IngestBatch: 64, RefreezeAt: -1})

	if n := countRows(t, url); n != 100 {
		t.Fatalf("pre-ingest rows = %d, want 100", n)
	}
	resp, lines := postIngest(t, url, ingestBody(100, 500))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	last := lines[len(lines)-1]
	if last["done"] != true {
		t.Fatalf("final line not done: %v", last)
	}
	if got := last["triples_applied"]; got != float64(400) {
		t.Fatalf("triples_applied = %v, want 400", got)
	}
	// 400 triples at batch 64: 6 full batches + the final short one,
	// each with a progress line, plus the summary.
	if len(lines) != 8 {
		t.Fatalf("%d NDJSON lines, want 8", len(lines))
	}
	if n := countRows(t, url); n != 500 {
		t.Fatalf("post-ingest rows = %d, want 500", n)
	}

	st := serverStats(t, url)
	if st.Ingest.Batches != 7 || st.Ingest.TriplesApplied != 400 {
		t.Fatalf("stats ingest = %+v, want 7 batches / 400 applied", st.Ingest)
	}
	if st.Ingest.OverlaySize != 400 || st.Triples != 500 {
		t.Fatalf("overlay=%d triples=%d, want 400/500 (refreeze disabled)",
			st.Ingest.OverlaySize, st.Triples)
	}
	// Duplicates are dropped, not re-applied.
	_, lines = postIngest(t, url, ingestBody(100, 200))
	last = lines[len(lines)-1]
	if got := last["triples_applied"]; got != float64(0) {
		t.Fatalf("duplicate ingest applied %v triples, want 0", got)
	}
	if n := countRows(t, url); n != 500 {
		t.Fatalf("rows after duplicate ingest = %d, want 500", n)
	}
}

// TestIngestRefreeze pins the compaction trigger: once the overlay
// passes RefreezeAt the generation is re-frozen — overlay back to
// zero, same data, refreeze counter bumped.
func TestIngestRefreeze(t *testing.T) {
	_, url := startServer(t, Config{Engine: testEngine(t, 50), IngestBatch: 100, RefreezeAt: 150})

	resp, lines := postIngest(t, url, ingestBody(50, 450))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	last := lines[len(lines)-1]
	if last["done"] != true {
		t.Fatalf("final line not done: %v", last)
	}
	st := serverStats(t, url)
	if st.Ingest.Refreezes == 0 || st.Ingest.RefreezeFailures != 0 {
		t.Fatalf("refreezes=%d failures=%d, want >0 and 0",
			st.Ingest.Refreezes, st.Ingest.RefreezeFailures)
	}
	if st.Ingest.OverlaySize >= 150 {
		t.Fatalf("overlay %d never compacted (RefreezeAt 150)", st.Ingest.OverlaySize)
	}
	if st.Triples != 450 || countRows(t, url) != 450 {
		t.Fatalf("triples=%d rows=%d, want 450 after refreezes", st.Triples, countRows(t, url))
	}
}

// TestIngestTruncatedGzipAborts pins the corruption contract: a gzip
// body cut mid-stream errors cleanly and the partial batch is not
// applied — with a batch larger than the payload, nothing at all is.
func TestIngestTruncatedGzipAborts(t *testing.T) {
	_, url := startServer(t, Config{Engine: testEngine(t, 100), IngestBatch: 1 << 20})

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(ingestBody(100, 2000))); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, cut := range []int{len(full) / 2, len(full) - 8, 3} {
		resp, err := http.Post(url+"/ingest", "application/gzip", bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// No batch boundary was reached, so the error is a clean 400.
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cut=%d: status %d (%s), want 400", cut, resp.StatusCode, body)
		}
		if n := countRows(t, url); n != 100 {
			t.Fatalf("cut=%d: %d rows visible, want 100 (partial batch applied?)", cut, n)
		}
	}
	st := serverStats(t, url)
	if st.Ingest.TriplesApplied != 0 || st.Ingest.Batches != 0 {
		t.Fatalf("aborted ingests recorded %+v, want zero applied", st.Ingest)
	}
}

// TestIngestMidStreamCorruption pins error reporting after the status
// is committed: earlier batches stay applied, the NDJSON summary
// carries the error with the bulk loader's line numbering, and the
// partial batch is discarded.
func TestIngestMidStreamCorruption(t *testing.T) {
	_, url := startServer(t, Config{Engine: testEngine(t, 100), IngestBatch: 40, RefreezeAt: -1})

	bad := ingestBody(100, 180) + "this line is not a triple\n" + ingestBody(180, 260)
	resp, lines := postIngest(t, url, bad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (error in trailer)", resp.StatusCode)
	}
	last := lines[len(lines)-1]
	if last["done"] == true || last["error"] == nil {
		t.Fatalf("summary after corruption: %v", last)
	}
	if !strings.Contains(last["error"].(string), "line 81") {
		t.Fatalf("error %q does not name input line 81", last["error"])
	}
	// Two full batches (80 triples) landed before the bad line; none
	// of the following triples did.
	if n := countRows(t, url); n != 180 {
		t.Fatalf("rows = %d, want 180 (two whole batches applied)", n)
	}
	st := serverStats(t, url)
	if st.Ingest.Batches != 2 || st.Ingest.TriplesApplied != 80 {
		t.Fatalf("stats ingest = %+v, want 2 batches / 80 applied", st.Ingest)
	}
}

// TestIngestWriterExclusion pins the writer lock: while one writer
// holds it, a second ingest gets 409 and a reload gets 503; readers
// keep being served throughout.
func TestIngestWriterExclusion(t *testing.T) {
	s, url := startServer(t, Config{
		Engine: testEngine(t, 50),
		Reload: func() (*wdsparql.Engine, *SnapshotStats, io.Closer, error) {
			return testEngine(t, 50), nil, nil, nil
		},
	})

	s.mutMu.Lock() // stand in for a long-running ingest
	defer s.mutMu.Unlock()

	resp, err := http.Post(url+"/ingest", "application/n-triples", strings.NewReader("a p b .\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent ingest status %d, want 409", resp.StatusCode)
	}

	resp, err = http.Post(url+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reload during ingest status %d, want 503", resp.StatusCode)
	}

	if n := countRows(t, url); n != 50 {
		t.Fatalf("reads blocked by writer lock: %d rows, want 50", n)
	}
}

// closerFunc adapts a func to io.Closer.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// TestIngestKeepsSnapshotBackingAlive pins the refcounted closer:
// generations derived by ingest share the base engine's backing, so it
// must close exactly once, and only after the last generation retires.
func TestIngestKeepsSnapshotBackingAlive(t *testing.T) {
	var closed atomic.Int32
	closer := closerFunc(func() error { closed.Add(1); return nil })
	s, url := startServer(t, Config{Engine: testEngine(t, 100), Closer: closer, IngestBatch: 16})

	resp, lines := postIngest(t, url, ingestBody(100, 200))
	if resp.StatusCode != http.StatusOK || lines[len(lines)-1]["done"] != true {
		t.Fatalf("ingest failed: status %d, %v", resp.StatusCode, lines)
	}
	// Several generations were swapped and retired; the backing stays.
	if n := closed.Load(); n != 0 {
		t.Fatalf("backing closed %d times during ingest, want 0", n)
	}
	if countRows(t, url) != 200 {
		t.Fatal("ingested rows not visible")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := closed.Load(); n != 1 {
		t.Fatalf("backing closed %d times after shutdown, want exactly 1", n)
	}
}

// TestIngestWhileQueryingHTTP is the HTTP-level soak (sibling of the
// in-process one in the root package): readers hammer /sparql while an
// ingest streams batches through generation swaps and re-freezes. Every
// read must succeed with a whole number of batches, and nothing leaks.
func TestIngestWhileQueryingHTTP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const (
		baseN   = 200
		batch   = 50
		total   = 1200
		readers = 4
	)
	func() {
		s, url := startServer(t, Config{
			Engine:        testEngine(t, baseN),
			IngestBatch:   batch,
			RefreezeAt:    175,
			MaxConcurrent: 16,
		})

		stop := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(sparqlURL(url, `(?x p ?y)`, nil))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						errs <- fmt.Errorf("read status %d", resp.StatusCode)
						return
					}
					n := len(decodeResults(t, resp.Body).Results.Bindings)
					resp.Body.Close()
					if n < baseN || (n-baseN)%batch != 0 {
						errs <- fmt.Errorf("read %d rows: not base plus whole batches", n)
						return
					}
				}
			}()
		}

		resp, lines := postIngest(t, url, ingestBody(baseN, total))
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || lines[len(lines)-1]["done"] != true {
			t.Fatalf("ingest: status %d, final %v", resp.StatusCode, lines[len(lines)-1])
		}
		if n := countRows(t, url); n != total {
			t.Fatalf("final rows = %d, want %d", n, total)
		}
		st := serverStats(t, url)
		if st.Ingest.Refreezes == 0 {
			t.Fatal("soak never exercised a re-freeze")
		}
		if st.Shed != 0 {
			t.Fatalf("%d requests shed during ingest, want 0 dropped", st.Shed)
		}

		// Drain before the leak check: pooled client connections and
		// the accept loop are infrastructure, not leaks.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}()
	assertNoGoroutineLeaks(t, baseline)
}

// TestIngestTieredOverSnapshot pins the delta tier behind a served
// image: every re-freeze seals the ingested triples beside the mapped
// image instead of rebuilding it, so folds stay 0 while the delta is
// smaller than the image, /stats reports the delta's size, reads stay
// exact on every generation, the fold comes exactly when the delta
// reaches the image's size, and the image — still the dictionary's
// backing after the fold — is unmapped exactly once, at the reload
// that retires it.
func TestIngestTieredOverSnapshot(t *testing.T) {
	path := t.TempDir() + "/tiered.wdsnap"
	writeSnapshotFile(t, path, 400)
	var (
		mu     sync.Mutex
		unmaps []*atomic.Int32 // one per loaded image, counting its Close calls
	)
	image := func(i int) *atomic.Int32 {
		mu.Lock()
		defer mu.Unlock()
		return unmaps[i]
	}
	load := func() (*wdsparql.Engine, *SnapshotStats, io.Closer, error) {
		eng, snap, err := wdsparql.NewEngineFromSnapshot(path, wdsparql.SnapshotMmap, wdsparql.WithQueryCache(16))
		if err != nil {
			return nil, nil, nil, err
		}
		n := new(atomic.Int32)
		mu.Lock()
		unmaps = append(unmaps, n)
		mu.Unlock()
		return eng, SnapshotStatsOf(snap.Info()), closerFunc(func() error { n.Add(1); return snap.Close() }), nil
	}
	eng, stats, closer, err := load()
	if err != nil {
		t.Fatal(err)
	}
	s, url := startServer(t, Config{Engine: eng, Snapshot: stats, Closer: closer, Reload: load,
		IngestBatch: 25, RefreezeAt: 50})

	check := func(rows, delta int, folds uint64) {
		t.Helper()
		st := serverStats(t, url)
		if st.Triples != rows || st.Ingest.DeltaTriples != delta || st.Ingest.Folds != folds || st.Ingest.OverlaySize != 0 {
			t.Fatalf("stats: triples %d, delta %d, folds %d, overlay %d; want %d, %d, %d, 0",
				st.Triples, st.Ingest.DeltaTriples, st.Ingest.Folds, st.Ingest.OverlaySize, rows, delta, folds)
		}
		if n := countRows(t, url); n != rows {
			t.Fatalf("rows = %d, want %d", n, rows)
		}
		if n := image(0).Load(); n != 0 {
			t.Fatalf("the served image was unmapped %d times while in use", n)
		}
	}
	// Six re-freezes of 50 triples each: the delta grows to 300 < 400.
	for from := 400; from < 700; from += 50 {
		if resp, lines := postIngest(t, url, ingestBody(from, from+50)); resp.StatusCode != http.StatusOK || lines[len(lines)-1]["done"] != true {
			t.Fatalf("ingest failed: status %d, %v", resp.StatusCode, lines)
		}
		check(from+50, from+50-400, 0)
	}
	if st := serverStats(t, url); st.Ingest.Refreezes != 6 {
		t.Fatalf("refreezes = %d, want 6", st.Ingest.Refreezes)
	}
	// 350 < 400 still seals; 400 = 400 folds.
	postIngest(t, url, ingestBody(700, 750))
	check(750, 350, 0)
	postIngest(t, url, ingestBody(750, 800))
	check(800, 0, 1)

	if resp, _ := postReload(t, url); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	if n := countRows(t, url); n != 400 {
		t.Fatalf("rows after reload = %d, want the image's 400", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for image(0).Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := range 2 {
		if n := image(i).Load(); n != 1 {
			t.Fatalf("image %d unmapped %d times, want exactly once", i, n)
		}
	}
}

package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdsparql"
)

// Reload tests pin the hot-swap contract: POST /reload installs a
// freshly loaded snapshot atomically, in-flight requests finish on the
// generation they started with (served off the old mmap, which closes
// only after the last of them releases it), a failed reload keeps the
// old engine serving, and nothing leaks.

// recordCloser wraps a generation's backing closer so tests can observe
// exactly when it fires.
type recordCloser struct {
	inner  io.Closer
	closed atomic.Bool
}

func (c *recordCloser) Close() error {
	c.closed.Store(true)
	return c.inner.Close()
}

// closerLog records every generation's closer in creation order.
type closerLog struct {
	mu sync.Mutex
	cs []*recordCloser
}

func (l *closerLog) wrap(c io.Closer) *recordCloser {
	l.mu.Lock()
	defer l.mu.Unlock()
	rc := &recordCloser{inner: c}
	l.cs = append(l.cs, rc)
	return rc
}

func (l *closerLog) at(i int) *recordCloser {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cs[i]
}

// writeSnapshotFile snapshots an nEdges-edge test graph to path
// (crash-atomically, so a serving mmap of the old file is unaffected).
func writeSnapshotFile(t testing.TB, path string, nEdges int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < nEdges; i++ {
		fmt.Fprintf(&sb, "s%d p o%d .\n", i, i)
	}
	if err := wdsparql.MustParseGraph(sb.String()).WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
}

// snapshotConfig builds a Config serving from the snapshot at path the
// way cmd/wdserve does, with every generation's closer recorded in log.
// Mmap mode on purpose: serving a retired generation off an unmapped
// buffer would fault, so the zero-dropped-requests tests are load-
// bearing, not just counter checks.
func snapshotConfig(t *testing.T, path string, log *closerLog) Config {
	t.Helper()
	load := func() (*wdsparql.Engine, *SnapshotStats, io.Closer, error) {
		eng, snap, err := wdsparql.NewEngineFromSnapshot(path, wdsparql.SnapshotMmap,
			wdsparql.WithQueryCache(16))
		if err != nil {
			return nil, nil, nil, err
		}
		return eng, SnapshotStatsOf(snap.Info()), log.wrap(snap), nil
	}
	eng, stats, closer, err := load()
	if err != nil {
		t.Fatalf("initial snapshot load: %v", err)
	}
	return Config{Engine: eng, Snapshot: stats, Closer: closer, Reload: load}
}

type reloadReply struct {
	Reloaded bool           `json:"reloaded"`
	Triples  int            `json:"triples"`
	Snapshot *SnapshotStats `json:"snapshot"`
}

func postReload(t *testing.T, base string) (*http.Response, reloadReply) {
	t.Helper()
	resp, err := http.Post(base+"/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /reload: %v", err)
	}
	var rep reloadReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("reload reply: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	return resp, rep
}

func countBindings(t *testing.T, base, query string) int {
	t.Helper()
	resp, err := http.Get(sparqlURL(base, query, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	return len(decodeResults(t, resp.Body).Results.Bindings)
}

func serverStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return st
}

// TestReloadSwapsSnapshot pins the basic swap: after the file on disk
// is replaced, POST /reload serves the new data, /stats reflects the
// new generation, and the idle old generation's backing closes. A
// subsequent corrupt file degrades to a 500 that keeps the old engine.
func TestReloadSwapsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wdsnap")
	writeSnapshotFile(t, path, 3)
	var log closerLog
	_, base := startServer(t, snapshotConfig(t, path, &log))

	if n := countBindings(t, base, `(?x p ?y)`); n != 3 {
		t.Fatalf("pre-reload bindings = %d, want 3", n)
	}
	st := serverStats(t, base)
	if st.Snapshot == nil || st.Snapshot.Mode != "mmap" || st.Snapshot.Path != path {
		t.Fatalf("stats snapshot section = %+v", st.Snapshot)
	}
	oldCRC := st.Snapshot.Checksum

	// Replace the image and swap it in.
	writeSnapshotFile(t, path, 5)
	resp, rep := postReload(t, base)
	if resp.StatusCode != http.StatusOK || !rep.Reloaded || rep.Triples != 5 {
		t.Fatalf("reload: status %d, reply %+v", resp.StatusCode, rep)
	}
	if n := countBindings(t, base, `(?x p ?y)`); n != 5 {
		t.Fatalf("post-reload bindings = %d, want 5", n)
	}
	st = serverStats(t, base)
	if st.Reloads != 1 || st.ReloadFailures != 0 {
		t.Fatalf("reloads = %d/%d, want 1/0", st.Reloads, st.ReloadFailures)
	}
	if st.Snapshot == nil || st.Snapshot.Checksum == oldCRC {
		t.Fatalf("stats still shows the old snapshot: %+v", st.Snapshot)
	}
	// Nothing was in flight, so the old generation closes promptly.
	waitFor(t, 5e9, func() bool { return log.at(0).closed.Load() })

	// A corrupt image on disk must not take the server down, and neither
	// must an intact image of the retired sharded kind (header kind 2).
	// Replace by rename, as any real snapshot writer does — an in-place
	// truncation would mutate the inode the serving generation has
	// mmapped.
	kind2 := filepath.Join(t.TempDir(), "kind2.wdsnap")
	writeSnapshotFile(t, kind2, 7)
	img, err := os.ReadFile(kind2)
	if err != nil {
		t.Fatal(err)
	}
	img[11] = 2
	binary.LittleEndian.PutUint32(img[60:64], crc32.Checksum(img[:60], crc32.MakeTable(crc32.Castagnoli)))
	for i, bad := range [][]byte{[]byte("not a snapshot"), img} {
		tmp := path + ".corrupt"
		if err := os.WriteFile(tmp, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
		resp, _ = postReload(t, base)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload of bad image %d: status %d, want 500", i, resp.StatusCode)
		}
		if n := countBindings(t, base, `(?x p ?y)`); n != 5 {
			t.Fatalf("bindings after failed reload %d = %d, want 5 (old engine)", i, n)
		}
		st = serverStats(t, base)
		if st.Reloads != 1 || st.ReloadFailures != uint64(i+1) {
			t.Fatalf("reloads = %d/%d after failure %d, want 1/%d", st.Reloads, st.ReloadFailures, i, i+1)
		}
		if log.at(1).closed.Load() {
			t.Fatal("serving generation closed by a failed reload")
		}
	}
}

// TestReloadZeroDroppedInFlight is the acceptance criterion: a request
// blocked mid-handler across a reload completes its full result set
// from the generation it started on, whose mmap closes only after that
// request finishes — while new requests already see the new data.
func TestReloadZeroDroppedInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()

	path := filepath.Join(t.TempDir(), "g.wdsnap")
	const oldEdges, newEdges = 4, 6
	writeSnapshotFile(t, path, oldEdges)
	var log closerLog
	s := New(snapshotConfig(t, path, &log))
	block := make(chan struct{})
	s.hookBeforeStream = func(q string) {
		if strings.Contains(q, "AND") { // only the cross query blocks
			<-block
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A request that will straddle the reload.
	type outcome struct {
		rows      int
		truncated bool
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Get(sparqlURL(srv.URL, crossQuery, nil))
		if err != nil {
			done <- outcome{rows: -1}
			return
		}
		defer resp.Body.Close()
		var doc sparqlJSON
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			done <- outcome{rows: -1}
			return
		}
		done <- outcome{rows: len(doc.Results.Bindings), truncated: doc.Truncated}
	}()
	waitFor(t, 10e9, func() bool { return s.adm.executing() == 1 })

	// Swap generations under the in-flight request.
	writeSnapshotFile(t, path, newEdges)
	resp, _ := postReload(t, srv.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	if log.at(0).closed.Load() {
		t.Fatal("old snapshot closed with a request still in flight")
	}
	// New requests are on the new generation immediately.
	if n := countBindings(t, srv.URL, `(?x p ?y)`); n != newEdges {
		t.Fatalf("post-reload bindings = %d, want %d", n, newEdges)
	}
	if log.at(0).closed.Load() {
		t.Fatal("old snapshot closed while its request is still blocked")
	}

	// Release the straddling request: it must deliver the complete old
	// result set, and only then may the old backing close.
	close(block)
	out := <-done
	if out.rows != oldEdges*oldEdges || out.truncated {
		t.Fatalf("straddling request: rows = %d (want %d), truncated = %v",
			out.rows, oldEdges*oldEdges, out.truncated)
	}
	waitFor(t, 10e9, func() bool { return log.at(0).closed.Load() })
	if log.at(1).closed.Load() {
		t.Fatal("new generation closed while serving")
	}

	// Shutdown retires the final generation and leaves no goroutines.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitFor(t, 10e9, func() bool { return log.at(1).closed.Load() })
	http.DefaultClient.CloseIdleConnections()
	assertNoGoroutineLeaks(t, baseline)
}

// TestReloadUnconfigured pins the non-snapshot server: /reload is 501
// for POST and 405 for other methods, and /stats has no snapshot
// section.
func TestReloadUnconfigured(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 3)})

	resp, _ := postReload(t, base)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /reload without Config.Reload: %d, want 501", resp.StatusCode)
	}
	resp, err := http.Get(base + "/reload")
	if err != nil {
		t.Fatalf("GET /reload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload: %d, want 405", resp.StatusCode)
	}
	if st := serverStats(t, base); st.Snapshot != nil {
		t.Fatalf("parsed-graph server reports a snapshot: %+v", st.Snapshot)
	}
}

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdsparql"
)

// These tests pin the robustness contract of the endpoint, all run
// under -race in CI:
//
//   - streaming: the first response chunk is on the wire before the
//     enumeration completes;
//   - failure paths: malformed → 400, non-well-designed → 422,
//     timeout mid-stream → truncated-but-valid response, overload →
//     503 + Retry-After, panic → 500 and a living process;
//   - concurrency: 64 clients against a gate of 8 produce correct
//     streams, bounded in-flight, a shed tail, and no goroutine leaks
//     after Shutdown;
//   - lifecycle: stalled clients free their gate slot, drain flips
//     /readyz and hard-cancels past the deadline.

// crossQuery yields n² rows over the n p-edges of testEngine — large
// result sets from a small graph, for backpressure and truncation.
const crossQuery = `((?x p ?y) AND (?z p ?w))`

// notWDQuery parses but is not well-designed (from the engine tests).
const notWDQuery = `(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2)))`

func testEngine(t testing.TB, nEdges int) *wdsparql.Engine {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < nEdges; i++ {
		fmt.Fprintf(&sb, "s%d p o%d .\n", i, i)
	}
	return wdsparql.NewEngine(wdsparql.MustParseGraph(sb.String()),
		wdsparql.WithQueryCache(64))
}

// startServer runs cfg on a real TCP listener (needed for genuine
// write backpressure) and arranges an end-of-test drain.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + ln.Addr().String()
}

func sparqlURL(base, query string, params url.Values) string {
	v := url.Values{"query": {query}}
	for k, vals := range params {
		v[k] = vals
	}
	return base + "/sparql?" + v.Encode()
}

// sparqlJSON mirrors the SPARQL results JSON document, including the
// non-standard truncation marker.
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type  string `json:"type"`
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
	Truncated bool `json:"truncated"`
}

func decodeResults(t *testing.T, r io.Reader) sparqlJSON {
	t.Helper()
	var doc sparqlJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatalf("response is not valid SPARQL JSON: %v", err)
	}
	return doc
}

// TestFirstChunkBeforeEnumerationCompletes pins the core streaming
// property: the response prologue is flushed before the enumeration
// finishes. The query produces ~11 MB — far beyond any socket buffer —
// so once the client has its first byte, the handler is provably still
// mid-enumeration, blocked on backpressure.
func TestFirstChunkBeforeEnumerationCompletes(t *testing.T) {
	const n = 400 // n² = 160000 rows
	s, base := startServer(t, Config{Engine: testEngine(t, n)})

	resp, err := http.Get(sparqlURL(base, crossQuery, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentTypeJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, contentTypeJSON)
	}

	// One byte of body proves the first chunk arrived; the counter
	// proves the enumeration had not finished producing rows.
	one := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, one); err != nil {
		t.Fatalf("reading first byte: %v", err)
	}
	streamed := s.rowsStreamed.Load()
	if streamed >= n*n {
		t.Fatalf("first chunk arrived only after all %d rows were produced", n*n)
	}
	t.Logf("first byte on the wire with %d/%d rows produced", streamed, n*n)

	doc := decodeResults(t, io.MultiReader(strings.NewReader(string(one)), resp.Body))
	if got := len(doc.Results.Bindings); got != n*n {
		t.Fatalf("bindings = %d, want %d", got, n*n)
	}
	if doc.Truncated {
		t.Fatal("complete stream marked truncated")
	}
}

// TestMalformedQuery400 pins the parse-failure path: a syntactically
// broken query gets a 400 whose body carries a useful message.
func TestMalformedQuery400(t *testing.T) {
	s, base := startServer(t, Config{Engine: testEngine(t, 4)})
	resp, err := http.Get(sparqlURL(base, `((?x p`, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %q)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("400 body %q is not a JSON error document", body)
	}
	if s.rejected.Load() == 0 {
		t.Fatal("rejected counter not bumped")
	}
}

// TestMissingQuery400 pins that an empty query parameter is a 400, not
// a confusing parse error.
func TestMissingQuery400(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 4)})
	resp, err := http.Get(base + "/sparql")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestNotWellDesigned422 pins the semantic-failure path: a query that
// parses but is outside the engine's well-designed fragment gets 422,
// distinguishing "fix your syntax" from "this engine cannot run that".
func TestNotWellDesigned422(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 4)})
	resp, err := http.Get(sparqlURL(base, notWDQuery, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "well-designed") {
		t.Fatalf("422 body %q does not explain well-designedness", body)
	}
}

// TestPostForms pins both POST request shapes of the SPARQL protocol.
func TestPostForms(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 3)})

	resp, err := http.PostForm(base+"/sparql", url.Values{"query": {`(?x p ?y)`}})
	if err != nil {
		t.Fatalf("POST form: %v", err)
	}
	doc := decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("form POST bindings = %d, want 3", len(doc.Results.Bindings))
	}

	resp, err = http.Post(base+"/sparql", "application/sparql-query",
		strings.NewReader(`(?x p ?y)`))
	if err != nil {
		t.Fatalf("POST raw: %v", err)
	}
	doc = decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("raw POST bindings = %d, want 3", len(doc.Results.Bindings))
	}
}

// TestLimitOffsetAndTSV pins the pagination parameters and the TSV
// serialisation.
func TestLimitOffsetAndTSV(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 10)})

	resp, err := http.Get(sparqlURL(base, `(?x p ?y)`,
		url.Values{"limit": {"4"}, "offset": {"2"}}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	doc := decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(doc.Results.Bindings) != 4 {
		t.Fatalf("limit=4 returned %d bindings", len(doc.Results.Bindings))
	}

	resp, err = http.Get(sparqlURL(base, `(?x p ?y)`,
		url.Values{"format": {"tsv"}, "limit": {"2"}}))
	if err != nil {
		t.Fatalf("GET tsv: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != contentTypeTSV {
		t.Fatalf("Content-Type = %q, want %q", ct, contentTypeTSV)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "?") {
		t.Fatalf("tsv = %q, want header + 2 rows", body)
	}
	if !strings.Contains(lines[1], "<") || !strings.Contains(lines[1], "\t") {
		t.Fatalf("tsv row %q lacks <iri> cells", lines[1])
	}
}

// TestWorkersParamKeepsStream pins ?workers= as a pure speed knob: a
// request enumerated on a pool of workers answers byte for byte what
// the sequential request answers, whole and windowed.
func TestWorkersParamKeepsStream(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 12), MaxWorkers: 4})
	get := func(params url.Values) string {
		t.Helper()
		params.Set("format", "tsv")
		resp, err := http.Get(sparqlURL(base, crossQuery, params))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d (body %q)", resp.StatusCode, body)
		}
		return string(body)
	}
	for _, window := range []url.Values{{}, {"offset": {"7"}, "limit": {"50"}}} {
		seq := get(url.Values{"offset": window["offset"], "limit": window["limit"]})
		par := get(url.Values{"offset": window["offset"], "limit": window["limit"], "workers": {"4"}})
		if strings.Count(seq, "\n") < 2 {
			t.Fatalf("window %v: no rows below the header", window)
		}
		if par != seq {
			t.Fatalf("window %v: workers=4 answered\n%s\nsequential answered\n%s", window, par, seq)
		}
	}
}

// TestTimeoutMidStreamTruncatedValid pins the deadline path: a request
// whose ?timeout= expires mid-stream still ends as a valid JSON
// document, flagged truncated, with fewer than the full rows — and the
// timeouts counter records it.
func TestTimeoutMidStreamTruncatedValid(t *testing.T) {
	const n = 400
	s, base := startServer(t, Config{Engine: testEngine(t, n)})

	resp, err := http.Get(sparqlURL(base, crossQuery, url.Values{"timeout": {"30ms"}}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream had started)", resp.StatusCode)
	}
	// Take the first byte, then hold the stream under backpressure past
	// the deadline so the cut is guaranteed to land mid-stream.
	one := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, one); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	doc := decodeResults(t, io.MultiReader(strings.NewReader(string(one)), resp.Body))
	if !doc.Truncated {
		t.Fatal("timed-out stream not marked truncated")
	}
	if got := len(doc.Results.Bindings); got >= n*n {
		t.Fatalf("bindings = %d, want < %d after timeout", got, n*n)
	}
	if s.timeouts.Load() == 0 {
		t.Fatal("timeouts counter not bumped")
	}
}

// TestOverload503RetryAfter pins shedding: with the gate and queue
// full, further requests get an immediate 503 carrying Retry-After.
func TestOverload503RetryAfter(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Engine:        testEngine(t, 4),
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  50 * time.Millisecond,
		RetryAfter:    7 * time.Second,
	})
	s.hookBeforeStream = func(string) { <-release }
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer close(release)

	// Occupy the gate.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(sparqlURL(srv.URL, `(?x p ?y)`, nil))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return s.adm.executing() == 1 })

	// Both of these exceed gate+queue within the hook's hold: one may
	// queue (and time out), the rest shed instantly.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(sparqlURL(srv.URL, `(?x p ?y)`, nil))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("Retry-After = %q, want \"7\"", ra)
		}
	}
	if s.shed.Load() < 2 {
		t.Fatalf("shed = %d, want >= 2", s.shed.Load())
	}
	release <- struct{}{}
	wg.Wait()
}

// TestPanicIsolation pins that a panicking evaluation becomes one 500
// and a counter bump — the process survives and keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := New(Config{Engine: testEngine(t, 3)})
	s.hookBeforeStream = func(q string) {
		if strings.Contains(q, "?boom") {
			panic("injected evaluation failure")
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(sparqlURL(srv.URL, `(?boom p ?y)`, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("500 body %q lacks an error message", body)
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panics = %d, want 1", s.panics.Load())
	}

	// The process is still serving.
	resp, err = http.Get(sparqlURL(srv.URL, `(?x p ?y)`, nil))
	if err != nil {
		t.Fatalf("GET after panic: %v", err)
	}
	doc := decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("post-panic bindings = %d, want 3", len(doc.Results.Bindings))
	}
}

// TestStalledClientFreesGateSlot pins the write-deadline path: a
// client that stops reading turns into a write error within
// WriteTimeout, the enumeration stops, and the gate slot is released.
func TestStalledClientFreesGateSlot(t *testing.T) {
	const n = 300 // ≈ 5.5 MB result, far beyond socket buffering
	s, base := startServer(t, Config{
		Engine:       testEngine(t, n),
		WriteTimeout: 150 * time.Millisecond,
	})

	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /sparql?query=%s HTTP/1.1\r\nHost: wdserve\r\n\r\n",
		url.QueryEscape(crossQuery))
	// Never read: the socket fills, the next armed write deadline
	// expires, and the handler must exit.
	waitFor(t, 20*time.Second, func() bool { return s.writeStalls.Load() >= 1 })
	waitFor(t, 20*time.Second, func() bool { return s.adm.executing() == 0 })
	waitFor(t, 20*time.Second, func() bool { return s.inFlight.Load() == 0 })
}

// TestRowsStreamedCountsEncodedRows pins /stats rows_streamed, which
// the handler adds per write rather than per row: after a complete
// stream it equals the rows sent, and after a stalled client it counts
// the rows encoded — every row the client received whole, plus at most
// what the handler's and net/http's buffers held when the write failed.
func TestRowsStreamedCountsEncodedRows(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		const n = 30 // 900 rows, more than one 64 KiB buffer
		_, base := startServer(t, Config{Engine: testEngine(t, n)})
		resp, err := http.Get(sparqlURL(base, crossQuery, nil))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		doc := decodeResults(t, resp.Body)
		resp.Body.Close()
		if got := len(doc.Results.Bindings); got != n*n {
			t.Fatalf("bindings = %d, want %d", got, n*n)
		}
		resp, err = http.Get(base + "/stats")
		if err != nil {
			t.Fatalf("GET stats: %v", err)
		}
		var st Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("stats decode: %v", err)
		}
		if st.RowsStreamed != n*n {
			t.Fatalf("rows_streamed = %d, want %d", st.RowsStreamed, n*n)
		}
	})

	t.Run("stalled", func(t *testing.T) {
		const n = 300 // ≈ 5.5 MB result, far beyond socket buffering
		s, base := startServer(t, Config{
			Engine:       testEngine(t, n),
			WriteTimeout: 150 * time.Millisecond,
		})
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET /sparql?query=%s HTTP/1.1\r\nHost: wdserve\r\n\r\n",
			url.QueryEscape(crossQuery))
		// Read nothing until the handler has given up, then take all
		// that reached the socket.
		waitFor(t, 20*time.Second, func() bool { return s.writeStalls.Load() >= 1 })
		waitFor(t, 20*time.Second, func() bool { return s.inFlight.Load() == 0 })
		_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("read response: %v", err)
		}
		body, _ := io.ReadAll(resp.Body) // cut mid-stream: ends in an error
		// Every complete row, and nothing else, ends in `"}}`.
		received := uint64(strings.Count(string(body), `"}}`))
		const minRow = len(`,{"x":{"type":"uri","value":"s0"},"y":{"type":"uri","value":"o0"},"z":{"type":"uri","value":"s0"},"w":{"type":"uri","value":"o0"}}`)
		// Encoded but not received: the handler's 64 KiB buffer, whose
		// write failed, plus net/http's 4 KiB connection and 2 KiB
		// chunking buffers, plus the row straddling the cut.
		const buffered = uint64((respBufSize+4<<10+2<<10)/minRow + 1)
		streamed := s.rowsStreamed.Load()
		if streamed < received || streamed > received+buffered || streamed >= n*n {
			t.Fatalf("rows_streamed = %d after the client received %d whole rows; want %d..%d and < %d",
				streamed, received, received, received+buffered, n*n)
		}
	})
}

// TestConcurrentLoadBoundedAndLeakFree is the acceptance-criteria
// load test: 64 concurrent requests against a gate of 8 must yield
// only correct 200 streams and 503s, keep in-flight bounded by the
// gate, and leave no goroutines behind after Shutdown.
func TestConcurrentLoadBoundedAndLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const (
		nEdges  = 10 // crossQuery → 100 rows per request
		clients = 64
		gate    = 8
	)
	s, base := startServer(t, Config{
		Engine:        testEngine(t, nEdges),
		MaxConcurrent: gate,
		MaxQueue:      gate,
		QueueTimeout:  20 * time.Millisecond,
	})
	// Hold every admitted request briefly so the herd genuinely
	// saturates the gate and the tail is shed.
	s.hookBeforeStream = func(string) { time.Sleep(10 * time.Millisecond) }

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	start := make(chan struct{})
	var ok, shed, wrong atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := client.Get(sparqlURL(base, crossQuery, nil))
			if err != nil {
				wrong.Add(1)
				t.Errorf("GET: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var doc sparqlJSON
				if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil ||
					len(doc.Results.Bindings) != nEdges*nEdges || doc.Truncated {
					wrong.Add(1)
					t.Errorf("bad 200 stream: err=%v rows=%d truncated=%v",
						err, len(doc.Results.Bindings), doc.Truncated)
					return
				}
				ok.Add(1)
			case http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					wrong.Add(1)
					t.Error("503 without Retry-After")
					return
				}
				io.Copy(io.Discard, resp.Body)
				shed.Add(1)
			default:
				wrong.Add(1)
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := ok.Load() + shed.Load() + wrong.Load(); got != clients {
		t.Fatalf("accounted for %d of %d requests", got, clients)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d malformed outcomes", wrong.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under load")
	}
	if shed.Load() == 0 {
		t.Fatal("no request was shed: the gate did not bound the herd")
	}
	if peak := s.peakInFlight.Load(); peak > gate {
		t.Fatalf("peak in-flight %d exceeded the gate %d", peak, gate)
	}
	t.Logf("ok=%d shed=%d peak_in_flight=%d", ok.Load(), shed.Load(), s.peakInFlight.Load())

	// Close the client's pooled connections BEFORE draining: under the
	// herd the transport dials connections that lose the race for a
	// request and stay pooled without ever sending one. Server-side
	// those sit in StateNew, which http.Server.Shutdown will not reap
	// until ReadHeaderTimeout — past this test's drain deadline.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	assertNoGoroutineLeaks(t, baseline)
}

// TestGracefulDrain pins the shutdown ladder: /readyz flips during the
// drain, a clean server shuts down with nil, and a stream outliving
// the drain deadline is hard-cancelled rather than waited on forever.
func TestGracefulDrain(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		s, base := startServer(t, Config{Engine: testEngine(t, 3)})
		resp, err := http.Get(base + "/readyz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz before drain: %v %v", resp.StatusCode, err)
		}
		resp.Body.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("clean Shutdown: %v", err)
		}

		// The listener is gone; probe the handler directly.
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("readyz after drain = %d, want 503", rec.Code)
		}
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/sparql?query="+url.QueryEscape(`(?x p ?y)`), nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("sparql during drain = %d, want 503", rec.Code)
		}
	})

	t.Run("hard-cancel", func(t *testing.T) {
		const n = 300
		s, base := startServer(t, Config{
			Engine:       testEngine(t, n),
			WriteTimeout: 200 * time.Millisecond,
		})

		// A stream the drain deadline will catch mid-flight: the client
		// reads one byte and then sits on the connection.
		resp, err := http.Get(sparqlURL(base, crossQuery, nil))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		one := make([]byte, 1)
		if _, err := io.ReadFull(resp.Body, one); err != nil {
			t.Fatalf("first byte: %v", err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(ctx) }()

		select {
		case err := <-done:
			if err != context.DeadlineExceeded {
				t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("Shutdown hung past the drain deadline: hard-cancel failed")
		}
		if s.inFlight.Load() != 0 {
			t.Fatalf("in-flight = %d after Shutdown returned", s.inFlight.Load())
		}
	})
}

// TestStatsEndpoint pins the /stats document shape and a few counters.
func TestStatsEndpoint(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 5), MaxConcurrent: 3})
	resp, err := http.Get(sparqlURL(base, `(?x p ?y)`, nil))
	if err != nil {
		t.Fatalf("GET sparql: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.Gate != 3 || st.Triples != 5 || st.Queries != 1 || st.RowsStreamed != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Backend == "" {
		t.Fatal("stats lacks backend")
	}
	if st.QueryCache.Misses != 1 {
		t.Fatalf("query cache misses = %d, want 1", st.QueryCache.Misses)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, max time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(max)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertNoGoroutineLeaks polls the goroutine count back down to the
// pre-test baseline (plus slack for the runtime's own helpers).
func assertNoGoroutineLeaks(t *testing.T, baseline int) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

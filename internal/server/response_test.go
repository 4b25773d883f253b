package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wdsparql"
)

// Response-path tests: how many writes a response costs on the socket,
// the first-row grace for slow queries, the escape bits carried across
// ingest generations, and 413 for oversized bodies.

// countingListener counts the writes, and the bytes, its connections
// hand to the socket.
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// startCounting is startServer over a countingListener.
func startCounting(t *testing.T, cfg Config) (*Server, *countingListener, string) {
	t.Helper()
	s := New(cfg)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln := &countingListener{Listener: tcp}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ln, "http://" + tcp.Addr().String()
}

// TestWritesPerResponse pins the socket writes a response costs. A
// small answer leaves in one write, header and whole document together,
// with Content-Length. A 12 MB answer leaves in buffer-sized writes:
// at most one per 16 KiB on the wire.
func TestWritesPerResponse(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		_, ln, base := startCounting(t, Config{Engine: testEngine(t, 4)})
		for _, format := range []string{formatJSON, formatTSV} {
			ln.writes.Store(0)
			resp, err := http.Get(sparqlURL(base, `(?x p ?y)`, url.Values{"format": {format}}))
			if err != nil {
				t.Fatalf("GET: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, read error %v", format, resp.StatusCode, err)
			}
			if w := ln.writes.Load(); w != 1 {
				t.Fatalf("%s: a 4-row answer took %d socket writes, want 1", format, w)
			}
			if resp.ContentLength != int64(len(body)) {
				t.Fatalf("%s: Content-Length = %d, want the %d-byte document", format, resp.ContentLength, len(body))
			}
			if rows := bytes.Count(body, []byte("\n")) - 1; format == formatTSV && rows != 4 {
				t.Fatalf("tsv rows = %d, want 4", rows)
			}
		}
	})

	t.Run("large", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector slows encoding past the first-row grace, which adds writes")
		}
		const n = 300 // 90,000 rows, ≈ 12.3 MB of JSON
		_, ln, base := startCounting(t, Config{Engine: testEngine(t, n)})
		ln.writes.Store(0)
		ln.bytes.Store(0)
		resp, err := http.Get(sparqlURL(base, crossQuery, nil))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		doc := decodeResults(t, resp.Body)
		resp.Body.Close()
		if got := len(doc.Results.Bindings); got != n*n {
			t.Fatalf("bindings = %d, want %d", got, n*n)
		}
		writes, sent := ln.writes.Load(), ln.bytes.Load()
		if bound := (sent + 16<<10 - 1) / (16 << 10); writes > bound {
			t.Fatalf("%d bytes took %d socket writes, want at most %d (one per 16 KiB)", sent, writes, bound)
		}
		t.Logf("%d bytes in %d socket writes", sent, writes)
	})
}

// TestSlowFirstRowSendsPrologue pins the time-bounded streaming
// invariant: a query whose first row is far beyond the first-row grace
// (an offset past a four-million-row enumeration: every skipped row is
// computed, which takes a hundred times the grace) has its prologue on
// the wire, chunked, while the handler is still enumerating.
func TestSlowFirstRowSendsPrologue(t *testing.T) {
	const n = 2000 // n² = 4,000,000 rows to skip
	s, base := startServer(t, Config{Engine: testEngine(t, n)})

	resp, err := http.Get(sparqlURL(base, crossQuery, url.Values{"offset": {strconv.Itoa(n * n)}}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	one := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, one); err != nil {
		t.Fatalf("reading first byte: %v", err)
	}
	if s.inFlight.Load() != 1 || s.rowsStreamed.Load() != 0 {
		t.Fatalf("prologue arrived after the stream: in flight %d, rows %d", s.inFlight.Load(), s.rowsStreamed.Load())
	}
	if resp.ContentLength != -1 {
		t.Fatalf("Content-Length = %d: the prologue waited for the whole document", resp.ContentLength)
	}
	doc := decodeResults(t, io.MultiReader(bytes.NewReader(one), resp.Body))
	if len(doc.Results.Bindings) != 0 || doc.Truncated {
		t.Fatalf("bindings = %d, truncated = %v; want an empty, complete page", len(doc.Results.Bindings), doc.Truncated)
	}
}

// TestPlainBitsCarryForward pins the escape bits across generations:
// a derived generation's bits equal a fresh build over its dictionary,
// whether its parent's bits were built or not, and an IRI a batch
// brings in with bytes either format escapes is not flagged.
func TestPlainBitsCarryForward(t *testing.T) {
	eng := testEngine(t, 4)
	gen0 := newEngineState(eng, nil, nil)
	if gen0.plain.bits.Load() != nil {
		t.Fatal("escape bits built before the first request")
	}
	_ = gen0.plainBits()

	hostile := "tab\there\"caf\u00e9"
	eng1 := eng.ApplyDelta([]wdsparql.Triple{{S: wdsparql.IRI(hostile), P: wdsparql.IRI("p"), O: wdsparql.IRI("caf\u00e9")}})
	gen1 := gen0.derive(eng1) // the parent's bits are built
	eng2 := eng1.ApplyDelta([]wdsparql.Triple{{S: wdsparql.IRI("s9"), P: wdsparql.IRI("p"), O: wdsparql.IRI("o\\9")}})
	gen2 := gen1.derive(eng2) // the parent's are not
	gen3 := gen2.derive(gen2.eng.Refreeze())

	for i, st := range []*engineState{gen1, gen2, gen3} {
		got := st.plainBits()
		if want := extendPlain(nil, st.dict()); !bytes.Equal(got, want) {
			t.Fatalf("generation %d: carried bits differ from a fresh build", i+1)
		}
	}
	d := gen3.dict()
	for _, c := range []struct {
		iri  string
		want byte
	}{
		{"s0", plainTSV | plainJSON},
		{hostile, 0},
		{"caf\u00e9", plainTSV},
		{"o\\9", 0},
	} {
		id, ok := d.LookupIRI(c.iri)
		if !ok {
			t.Fatalf("%q not interned", c.iri)
		}
		if got := gen3.plainBits()[id]; got != c.want {
			t.Fatalf("bits of %q = %02b, want %02b", c.iri, got, c.want)
		}
	}
}

// TestIngestedIRIEscaped is the carry-forward end to end: after a query
// has built the first generation's escape bits, an IRI holding a quote,
// a backslash and é arrives through POST /ingest (the line parser
// splits on whitespace, so a raw tab cannot) and comes out of the new
// generation escaped in both formats.
func TestIngestedIRIEscaped(t *testing.T) {
	s, base := startServer(t, Config{Engine: testEngine(t, 2)})
	if got := countRows(t, base); got != 2 {
		t.Fatalf("rows before ingest = %d, want 2", got)
	}
	hostile := `http://ex.org/q"u\o` + "\u00e9"
	resp, _ := postIngest(t, base, "<"+hostile+"> p o9 .\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	resp, err := http.Get(sparqlURL(base, `(?x p ?y)`, url.Values{"format": {"tsv"}}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "<http://ex.org/q\"u\\\\o\u00e9>\t<o9>\n"; !strings.Contains(string(body), want) {
		t.Fatalf("tsv lacks the escaped row %q:\n%s", want, body)
	}

	resp, err = http.Get(sparqlURL(base, `(?x p ?y)`, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `"value":"http://ex.org/q\"u\\o` + "\u00e9" + `"`; !strings.Contains(string(raw), want) {
		t.Fatalf("json lacks the escaped value %s:\n%s", want, raw)
	}
	var doc sparqlJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("json: %v", err)
	}
	found := false
	for _, b := range doc.Results.Bindings {
		found = found || b["x"].Value == hostile
	}
	if !found {
		t.Fatalf("the ingested IRI does not round-trip: %s", raw)
	}
	if s.cur.Load().plain.base == nil {
		t.Fatal("the ingest generation did not carry its parent's escape bits")
	}
}

// TestOversizedBody413 pins 413 for a body over its bound, with the
// limit in the JSON error: both /sparql POST shapes and /ingest before
// its first progress line.
func TestOversizedBody413(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 2), MaxQueryBytes: 64, MaxIngestBytes: 64})
	long := `(?x p ?y)` + strings.Repeat(" ", 200)
	for _, c := range []struct{ name, path, ctype, body string }{
		{"raw query", "/sparql", "application/sparql-query", long},
		{"form query", "/sparql", "application/x-www-form-urlencoded", url.Values{"query": {long}}.Encode()},
		{"ingest", "/ingest", "application/n-triples", ingestBody(100, 120)},
	} {
		resp, err := http.Post(base+c.path, c.ctype, strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: POST: %v", c.name, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", c.name, resp.StatusCode)
		}
		if err != nil || !strings.Contains(e.Error, "64-byte limit") {
			t.Fatalf("%s: error body %+v (%v) does not name the limit", c.name, e, err)
		}
	}
}

// nullWriter is a ResponseWriter that keeps nothing, with the flush and
// deadline controls of a connection, so a measurement of the handler
// counts the handler's allocations alone.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header              { return w.h }
func (w *nullWriter) WriteHeader(int)                  {}
func (w *nullWriter) Write(p []byte) (int, error)      { return len(p), nil }
func (w *nullWriter) Flush()                           {}
func (w *nullWriter) SetWriteDeadline(time.Time) error { return nil }

// TestSmallAnswerBytesAlloc is the response path's allocation gate: a
// warmed, cache-hit, 4-row /sparql answer through the in-process handler
// allocates at most smallAnswerBytes. The stream's 64 KiB buffer comes
// from a pool, so none of it is allocated per request.
func TestSmallAnswerBytesAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts and drops sync.Pool items")
	}
	const smallAnswerBytes = 2320
	h := New(Config{Engine: testEngine(t, 4)}).Handler()
	req, err := http.NewRequest(http.MethodGet, sparqlURL("", `(?x p ?y)`, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &nullWriter{h: http.Header{}}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			h.ServeHTTP(w, req)
		}
	}
	serve(100) // prepare cached, escape bits built, buffer pooled
	// The least of a few runs: a run that spans two collections has
	// lost the pooled buffer and allocates a fresh one.
	const ops = 200
	best := uint64(1 << 62)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve(ops)
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/ops)
	}
	t.Logf("a 4-row answer allocates %d bytes", best)
	if best > smallAnswerBytes {
		t.Fatalf("a warmed 4-row answer allocates %d bytes, want at most %d", best, smallAnswerBytes)
	}
}

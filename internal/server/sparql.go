package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wdsparql"
	"wdsparql/internal/sparql"
)

// The /sparql resource: SPARQL-protocol request parsing and the
// streaming query handler. The request lifecycle is
//
//	drain check → parse → admission → prepare (cached) → stream
//
// with every stage converting its failures into an HTTP status the
// client can act on: 503 (shed or draining, with Retry-After),
// 400 (malformed protocol or query), 413 (query body over
// MaxQueryBytes), 422 (parses but is not well-designed), 500 (isolated
// evaluation panic).

// httpError is an error with a decided status code; parseRequest and
// prepare return it so handleSparql replies uniformly.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequestf(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// tooLarge returns the 413 for a body read that failed on its
// http.MaxBytesReader bound, or nil when err is some other failure.
func tooLarge(what string, err error) *httpError {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return nil
	}
	return &httpError{code: http.StatusRequestEntityTooLarge,
		msg: fmt.Sprintf("%s exceeds the %d-byte limit", what, mbe.Limit)}
}

// request is one parsed /sparql request.
type request struct {
	query   string
	format  string // formatJSON or formatTSV
	limit   int    // -1: none requested
	offset  int
	workers int           // ≤ 1: sequential
	timeout time.Duration // 0: server default
	explain bool          // reply with the compiled query plan, no rows
}

// parseRequest implements the SPARQL-protocol request shapes: GET with
// ?query=, POST with an application/x-www-form-urlencoded body, and
// POST with a raw application/sparql-query body. Execution bounds ride
// the URL: limit, offset, timeout (a Go duration), workers, format,
// plus explain=1 to get the compiled query plan instead of rows.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (request, error) {
	req := request{format: formatJSON, limit: -1}
	q := r.URL.Query() // decoded once: the query text and every bound
	switch r.Method {
	case http.MethodGet:
		req.query = q.Get("query")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxQueryBytes)
		ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		switch ct {
		case "application/x-www-form-urlencoded", "":
			if err := r.ParseForm(); err != nil {
				if he := tooLarge("query body", err); he != nil {
					return req, he
				}
				return req, badRequestf("bad form body: %v", err)
			}
			req.query = r.PostForm.Get("query")
		case "application/sparql-query":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				if he := tooLarge("query body", err); he != nil {
					return req, he
				}
				return req, badRequestf("reading query body: %v", err)
			}
			req.query = string(body)
		default:
			return req, &httpError{code: http.StatusUnsupportedMediaType,
				msg: fmt.Sprintf("unsupported Content-Type %q (want application/x-www-form-urlencoded or application/sparql-query)", ct)}
		}
	default:
		return req, &httpError{code: http.StatusMethodNotAllowed, msg: "use GET or POST"}
	}
	if strings.TrimSpace(req.query) == "" {
		return req, badRequestf("missing query parameter")
	}

	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return req, badRequestf("bad limit %q (want a non-negative integer)", v)
		}
		req.limit = n
	}
	// MaxLimit caps the requested window — and applies when none was
	// requested, so one unbounded query cannot hold a gate slot for an
	// arbitrary result set unless the operator opted out (MaxLimit 0).
	if max := s.cfg.MaxLimit; max > 0 && (req.limit < 0 || req.limit > max) {
		req.limit = max
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return req, badRequestf("bad offset %q (want a non-negative integer)", v)
		}
		req.offset = n
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return req, badRequestf("bad workers %q (want a positive integer)", v)
		}
		req.workers = min(n, s.cfg.MaxWorkers)
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return req, badRequestf("bad timeout %q (want a positive Go duration, e.g. 500ms)", v)
		}
		req.timeout = min(d, s.cfg.MaxTimeout)
	}
	switch v := q.Get("explain"); v {
	case "":
	case "1", "true":
		req.explain = true
	default:
		return req, badRequestf("bad explain %q (want 1 or true)", v)
	}
	switch v := q.Get("format"); v {
	case "":
		if accepts(r.Header.Get("Accept"), "text/tab-separated-values") {
			req.format = formatTSV
		}
	case formatJSON, formatTSV:
		req.format = v
	default:
		return req, badRequestf("bad format %q (want json or tsv)", v)
	}
	return req, nil
}

// accepts reports whether the Accept header names the media type
// (coarse: parameter-free prefix match per comma-separated clause).
func accepts(header, mediaType string) bool {
	for _, clause := range strings.Split(header, ",") {
		clause = strings.TrimSpace(clause)
		if semi := strings.IndexByte(clause, ';'); semi >= 0 {
			clause = strings.TrimSpace(clause[:semi])
		}
		if clause == mediaType {
			return true
		}
	}
	return false
}

// prepare resolves the query text through the engine's cache, mapping
// failures onto protocol statuses: a text that does not parse is the
// client's syntax error (400); one that parses but is not well-designed
// is a semantically unprocessable query for this engine (422).
func (s *Server) prepare(eng *wdsparql.Engine, text string) (*wdsparql.PreparedQuery, error) {
	q, err := eng.PrepareText(text)
	if err == nil {
		return q, nil
	}
	var wdErr *sparql.WellDesignedError
	if errors.As(err, &wdErr) {
		return nil, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return nil, badRequestf("%v", err)
}

// handleSparql is the query endpoint.
func (s *Server) handleSparql(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.shed.Add(1)
		s.unavailable(w, "draining")
		return
	}
	req, err := s.parseRequest(w, r)
	if err != nil {
		s.rejected.Add(1)
		s.replyError(w, err)
		return
	}

	// Admission: bounded concurrency, bounded queue, fast shedding.
	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, errShed) {
			s.shed.Add(1)
			s.unavailable(w, "overloaded")
		}
		// Context errors mean the client went away while queued; there
		// is nobody to answer.
		return
	}
	defer s.adm.release()
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer s.noteInFlight()()

	// Pin this request to the current engine generation: a concurrent
	// POST /reload swaps the holder but cannot close this generation's
	// backing (the snapshot mmap) until the release below.
	st := s.engine()
	if st == nil {
		s.shed.Add(1)
		s.unavailable(w, "draining")
		return
	}
	defer st.release()

	// Panic isolation: one failing evaluation must cost exactly one
	// request. Before the response has started this is a clean 500;
	// mid-stream the connection is aborted (http.ErrAbortHandler is
	// net/http's quiet abort) so the client sees truncation rather
	// than a well-formed end of results.
	streaming := false
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			if streaming {
				panic(http.ErrAbortHandler)
			}
			s.replyError(w, &httpError{code: http.StatusInternalServerError,
				msg: fmt.Sprintf("internal error evaluating query: %v", p)})
		}
	}()

	q, err := s.prepare(st.eng, req.query)
	if err != nil {
		s.rejected.Add(1)
		s.replyError(w, err)
		return
	}
	s.queries.Add(1)

	// explain=1 replies with the compiled query plan instead of rows:
	// pure prepared-state serialisation, no evaluation runs.
	if req.explain {
		body, err := json.Marshal(q.Explain())
		if err != nil {
			s.replyError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		_, _ = w.Write(body)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.timeout > 0 {
		timeout = req.timeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if s.hookBeforeStream != nil {
		s.hookBeforeStream(req.query)
	}
	s.stream(ctx, w, st, q, req, &streaming)
}

// The response path. A stream encodes into a pooled 64 KiB buffer that
// goes to the connection when it fills, not every so many rows, so a
// large answer leaves in a few large writes. A fast answer that fits
// goes out whole, as one write with Content-Length; a slow one still
// sends its prologue within flushGrace of the request, before its first
// row exists.
const (
	respBufSize = 64 << 10
	// flushGrace bounds how long encoded bytes wait for company: the
	// prologue of a query that has not finished within it is sent on
	// its own, and a stream checks every graceRows rows whether its
	// last write is older than this.
	flushGrace = time.Millisecond
	graceRows  = 256
)

var respBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, respBufSize) }}

// wire is the thin writer between a stream's buffer and its
// ResponseWriter. The first byte it hands over commits the response
// header, and every write arms the write deadline first: a client that
// stops reading turns into a write error within WriteTimeout, which
// ends the enumeration instead of pinning the gate slot.
//
// Until the first write, the grace timer may write concurrently with
// the row loop, so both hold mu then; from the first write on the timer
// never writes and the loop takes no lock.
type wire struct {
	s     *Server
	w     http.ResponseWriter
	rc    *http.ResponseController
	ctype string

	mu      sync.Mutex
	started bool      // a byte went to the ResponseWriter: the header is committed
	done    bool      // the stream ended: the grace timer must not write
	last    time.Time // when bytes last went to the ResponseWriter
	rows    int       // rows encoded since then; rowsStreamed takes them per write
}

func (c *wire) Write(p []byte) (int, error) {
	if !c.started {
		h := c.w.Header()
		h.Set("Content-Type", c.ctype)
		h.Set("Cache-Control", "no-store")
		h.Set("X-Content-Type-Options", "nosniff")
		c.w.WriteHeader(http.StatusOK)
		c.started = true
	}
	c.s.rowsStreamed.Add(uint64(c.rows))
	c.rows = 0
	c.last = time.Now()
	_ = c.rc.SetWriteDeadline(c.last.Add(c.s.cfg.WriteTimeout))
	return c.w.Write(p)
}

// stream drives one query execution onto the wire. Deadline expiry and
// cancellation close the document as valid, truncated output; write
// failures (stalled or vanished client) stop the enumeration at the
// next row. *streaming reports, on return or panic, whether the header
// was committed.
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, st *engineState, q *wdsparql.PreparedQuery, req request, streaming *bool) {
	out := &wire{s: s, w: w, rc: http.NewResponseController(w)}
	bw := respBufs.Get().(*bufio.Writer)
	bw.Reset(out)
	enc := newEncoder(req.format, bw, q.Layout(), st.dict(), st.plainBits())
	out.ctype = enc.contentType()
	// send hands everything buffered to the connection now.
	send := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		return out.rc.Flush()
	}

	_ = enc.begin()
	out.last = time.Now()
	grace := time.AfterFunc(flushGrace, func() {
		out.mu.Lock()
		defer out.mu.Unlock()
		if !out.started && !out.done {
			_ = send() // a failure sticks in bw: the loop meets it at its next write
		}
	})
	shared, locked := true, false // the timer may still write; the loop holds mu
	defer func() {
		grace.Stop()
		if !locked {
			out.mu.Lock()
		}
		out.done = true
		s.rowsStreamed.Add(uint64(out.rows))
		*streaming = out.started
		out.mu.Unlock()
		bw.Reset(nil)
		respBufs.Put(bw)
	}()

	var opts []wdsparql.ExecOption
	if req.limit >= 0 {
		opts = append(opts, wdsparql.Limit(req.limit))
	}
	if req.offset > 0 {
		opts = append(opts, wdsparql.Offset(req.offset))
	}
	if req.workers > 1 {
		opts = append(opts, wdsparql.Parallel(req.workers))
	}

	var writeErr error
	sinceCheck := 0
	for row := range q.Rows(ctx, opts...) {
		if shared {
			out.mu.Lock()
			locked = true
		}
		if writeErr = enc.row(row); writeErr == nil {
			out.rows++
			// A stream producing rows slowly must not sit on them until
			// the buffer fills.
			if sinceCheck++; sinceCheck == graceRows {
				sinceCheck = 0
				if time.Since(out.last) > flushGrace {
					writeErr = send()
				}
			}
		}
		if shared {
			shared = !out.started
			locked = false
			out.mu.Unlock()
		}
		if writeErr != nil {
			break
		}
	}
	if shared {
		out.mu.Lock()
		locked = true
	}
	if writeErr != nil {
		// The connection is unusable; the enumeration already stopped
		// (breaking the Rows loop terminates it immediately).
		s.writeStalls.Add(1)
		return
	}
	truncated := ctx.Err() != nil
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.timeouts.Add(1)
	}
	_ = enc.end(truncated)
	if !out.started {
		// Nothing sent yet: the whole document is in the buffer.
		w.Header().Set("Content-Length", strconv.Itoa(bw.Buffered()))
	}
	// net/http flushes the tail (and the chunked terminator, if any)
	// as the handler returns.
	if err := bw.Flush(); err != nil {
		s.writeStalls.Add(1)
	}
}

// replyError writes an error reply; any error that is not an httpError
// is a 500.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	msg := err.Error()
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(code)
	_, _ = w.Write(jsonErrorBody(msg))
}

// unavailable writes the load-shedding reply: 503 with a Retry-After
// hint so well-behaved clients back off instead of hammering.
func (s *Server) unavailable(w http.ResponseWriter, why string) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write(jsonErrorBody(why + "; retry later"))
}

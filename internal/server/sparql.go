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
// 400 (malformed protocol or query), 422 (parses but is not
// well-designed), 500 (isolated evaluation panic).

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
	switch r.Method {
	case http.MethodGet:
		req.query = r.URL.Query().Get("query")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxQueryBytes)
		ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		switch ct {
		case "application/x-www-form-urlencoded", "":
			if err := r.ParseForm(); err != nil {
				return req, badRequestf("bad form body: %v", err)
			}
			req.query = r.PostForm.Get("query")
		case "application/sparql-query":
			body, err := io.ReadAll(r.Body)
			if err != nil {
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

	q := r.URL.Query()
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

// stream drives one query execution onto the wire. It flushes the
// encoder prologue before asking the engine for a single row, then
// streams with periodic flushes, each armed with a write deadline.
// Deadline expiry and cancellation close the document as valid,
// truncated output; write failures (stalled or vanished client) stop
// the enumeration at the next row.
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, st *engineState, q *wdsparql.PreparedQuery, req request, streaming *bool) {
	rc := http.NewResponseController(w)
	bw := bufio.NewWriterSize(w, 8<<10)
	enc := newEncoder(req.format, bw, q.Layout(), st.dict())

	flush := func() error {
		// The deadline covers this flush and every buffered write until
		// the next one: a client that stops reading turns into an error
		// here within WriteTimeout, which ends the enumeration instead
		// of pinning the gate slot.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := bw.Flush(); err != nil {
			return err
		}
		return rc.Flush()
	}

	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	*streaming = true

	_ = enc.begin()
	if err := flush(); err != nil {
		s.writeStalls.Add(1)
		return
	}

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

	// Rows encoded since the last flush; rowsStreamed takes them per
	// flush and once more when the loop ends, not per row.
	sinceFlush := 0
	var writeErr error
	for row := range q.Rows(ctx, opts...) {
		if writeErr = enc.row(row); writeErr != nil {
			break
		}
		if sinceFlush++; sinceFlush >= s.cfg.FlushEvery {
			s.rowsStreamed.Add(uint64(sinceFlush))
			sinceFlush = 0
			if writeErr = flush(); writeErr != nil {
				break
			}
		}
	}
	s.rowsStreamed.Add(uint64(sinceFlush))
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
	if err := flush(); err != nil {
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

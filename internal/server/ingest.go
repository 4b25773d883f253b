package server

// POST /ingest: live writes without stopping the world. The body is
// the same N-Triples subset wdserve loads at startup (optionally
// gzipped, detected by magic bytes), streamed and applied in batches:
//
//   - Each batch becomes one ApplyDelta generation swap — atomic in
//     the only sense that matters to readers: no query, on any
//     generation, ever observes part of a batch. Queries running when
//     a batch lands keep streaming their own generation; queries
//     admitted after it see all of it.
//   - A parse error (or a corrupt/truncated gzip stream) aborts the
//     ingest at the first bad byte: the batch being accumulated is
//     discarded, batches already applied stay applied, and the error
//     names the input line the way the bulk loader would.
//   - When the mutable overlay grows past Config.RefreezeAt triples,
//     the ingest re-freezes: the overlay is sealed into the delta tier
//     over the shared base (for a served snapshot, the mapped image)
//     on a forked generation and swapped in, again without disturbing
//     a single in-flight reader. The base itself is rebuilt only when
//     the delta would reach its size (rdf.Graph.Freeze).
//   - One writer at a time: concurrent POST /ingest gets 409, and
//     /reload and /ingest exclude each other through the same writer
//     lock. Readers are never locked out by any of this.
//
// The response is NDJSON: one progress object per applied batch (so a
// client driving a long ingest sees liveness, batch by batch) and a
// final summary object carrying either "done":true or "error".

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// ingestProgress is one NDJSON progress line: cumulative counts after
// a batch swap.
type ingestProgress struct {
	Batch   int `json:"batch"`           // 1-based index of the batch just applied
	Read    int `json:"triples_read"`    // data lines parsed so far
	Applied int `json:"triples_applied"` // triples actually added (duplicates excluded)
	Overlay int `json:"overlay"`         // overlay size after this batch
	Total   int `json:"triples"`         // graph size after this batch
}

// ingestSummary is the final NDJSON line.
type ingestSummary struct {
	Done      bool   `json:"done"`
	Error     string `json:"error,omitempty"`
	Batches   int    `json:"batches"`
	Read      int    `json:"triples_read"`
	Applied   int    `json:"triples_applied"`
	Refreezes int    `json:"refreezes"`
	Overlay   int    `json:"overlay"`
	Total     int    `json:"triples"`
}

// handleIngest is the live-write endpoint.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.replyError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "use POST"})
		return
	}
	if s.draining.Load() {
		s.unavailable(w, "draining")
		return
	}
	// One writer at a time. A second ingest is a client-side conflict
	// (409, no Retry-After: the client should coordinate, not poll).
	if !s.mutMu.TryLock() {
		s.replyError(w, &httpError{code: http.StatusConflict,
			msg: "another ingest or reload is in progress"})
		return
	}
	defer s.mutMu.Unlock()

	// Shutdown waits for running writers just like it waits for
	// running queries: no batch is ever torn by a drain.
	s.inflight.Add(1)
	defer s.inflight.Done()

	if st := s.cur.Load(); st == nil {
		s.unavailable(w, "draining")
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)
	rc := http.NewResponseController(w)
	// Progress lines interleave with request-body reads; on HTTP/1.x
	// the first response write closes the body unless the handler opts
	// into full-duplex explicitly.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Content-Type-Options", "nosniff")

	enc := json.NewEncoder(w)
	wroteProgress := false
	emit := func(v any) {
		// Same stalled-writer discipline as query streaming: each
		// progress flush arms a write deadline so a vanished client
		// cannot pin the writer lock past WriteTimeout.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		_ = enc.Encode(v)
		_ = rc.Flush()
	}

	var (
		batch     = make([]wdsparql.Triple, 0, s.cfg.IngestBatch)
		batches   int
		read      int
		applied   int
		refreezes int
	)

	apply := func() {
		// The holder cannot move under us — we are the only writer —
		// and its own reference keeps the state alive, so a plain Load
		// (no retain) is enough for the duration of the swap.
		cur := s.cur.Load()
		before := cur.eng.OverlayLen()
		ne := cur.eng.ApplyDelta(batch)
		applied += ne.OverlayLen() - before

		if s.cfg.RefreezeAt > 0 && ne.OverlayLen() >= s.cfg.RefreezeAt {
			func() {
				defer func() {
					if p := recover(); p != nil {
						// Keep serving with the overlay: a failed
						// seal costs read performance, not data.
						s.refreezeFails.Add(1)
					}
				}()
				ne = ne.Refreeze()
				refreezes++
				s.refreezes.Add(1)
				if ne.Graph().DeltaLen() == 0 {
					s.folds.Add(1) // the seal rebuilt the base
				}
			}()
		}

		next := cur.derive(ne)
		old := s.cur.Swap(next)
		old.release() // old generation retires when its last query finishes

		batches++
		s.ingestBatches.Add(1)
		batch = batch[:0]

		g := ne.Graph()
		emit(ingestProgress{Batch: batches, Read: read, Applied: applied,
			Overlay: g.OverlayLen(), Total: g.Len()})
		wroteProgress = true
	}

	err := rdf.DecodeTriples(r.Body, 0, func(sv, pv, ov string) error {
		read++
		batch = append(batch, wdsparql.Triple{S: wdsparql.IRI(sv), P: wdsparql.IRI(pv), O: wdsparql.IRI(ov)})
		if len(batch) == s.cfg.IngestBatch {
			apply()
		}
		return nil
	})
	if err != nil {
		// The partial batch in `batch` is discarded — no generation
		// ever contained any of it. Before the first progress line the
		// status code can still say 400 (413 for a body over
		// MaxIngestBytes); after it, the NDJSON summary
		// carries the error.
		s.ingestTriples.Add(uint64(applied))
		if !wroteProgress {
			s.rejected.Add(1)
			if he := tooLarge("ingest body", err); he != nil {
				s.replyError(w, he)
				return
			}
			s.replyError(w, badRequestf("ingest aborted: %v", err))
			return
		}
		emit(ingestSummary{Error: fmt.Sprintf("ingest aborted: %v", err),
			Batches: batches, Read: read, Applied: applied, Refreezes: refreezes,
			Overlay: s.overlayNow(), Total: s.triplesNow()})
		return
	}
	if len(batch) > 0 {
		apply() // the final, short batch — the stream ended cleanly
	}
	s.ingestTriples.Add(uint64(applied))
	emit(ingestSummary{Done: true, Batches: batches, Read: read, Applied: applied,
		Refreezes: refreezes, Overlay: s.overlayNow(), Total: s.triplesNow()})
}

func (s *Server) overlayNow() int {
	if st := s.cur.Load(); st != nil {
		return st.eng.OverlayLen()
	}
	return 0
}

func (s *Server) triplesNow() int {
	if st := s.cur.Load(); st != nil {
		return st.eng.Graph().Len()
	}
	return 0
}

package server

// Hot reload. The serving engine lives behind a reference-counted,
// atomically swappable holder so POST /reload can replace it — fresh
// snapshot, fresh prepared-query cache, fresh escape bits — without
// dropping a single in-flight request:
//
//   - Every /sparql request retains the current state once, after
//     admission, and releases it when its stream finishes. A reload
//     installs the new state first and only then drops the holder's
//     own reference, so requests already running keep their engine —
//     and the mmap behind it — alive until the last one completes.
//   - The backing Closer (an mmapped snapshot, typically) fires exactly
//     once, when the reference count reaches zero: immediately if the
//     old engine was idle, otherwise at the final release. No request
//     ever observes an unmapped arena.
//   - Reloads are serialised by a mutex; a failed reload leaves the old
//     state serving and bumps reload_failures, so a corrupt snapshot on
//     disk degrades to a 500 on /reload, never to a broken server.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// SnapshotStats is the /stats "snapshot" section: identity and load
// cost of the image behind the serving engine. Nil when the server was
// loaded from a parsed graph rather than a snapshot.
type SnapshotStats struct {
	Path     string  `json:"path"`
	Version  int     `json:"version"`
	Checksum string  `json:"checksum"` // hex image CRC: the snapshot's identity
	Mode     string  `json:"mode"`     // "heap" or "mmap"
	LoadMs   float64 `json:"load_ms"`
}

// SnapshotStatsOf converts a loaded snapshot's info into the /stats
// form; callers pass the result as Config.Snapshot (and from their
// Config.Reload closure).
func SnapshotStatsOf(info wdsparql.SnapshotInfo) *SnapshotStats {
	return &SnapshotStats{
		Path:     info.Path,
		Version:  info.Version,
		Checksum: fmt.Sprintf("%08x", info.Checksum),
		Mode:     info.Mode.String(),
		LoadMs:   float64(info.LoadTime) / float64(time.Millisecond),
	}
}

// refCloser shares one backing Closer among several engine
// generations. The live-write path (POST /ingest) derives new
// generations from the current one; when the base engine was loaded
// from an mmapped snapshot, every derived generation still reads the
// snapshot's arenas through the shared sealed base, so the mmap must
// outlive them all. Each generation holds one reference; the
// underlying Closer fires when the last reference closes.
type refCloser struct {
	c io.Closer
	n atomic.Int64
}

func newRefCloser(c io.Closer) *refCloser {
	rc := &refCloser{c: c}
	rc.n.Store(1)
	return rc
}

// retain adds a reference and returns the receiver, for handing to a
// derived generation.
func (rc *refCloser) retain() *refCloser {
	rc.n.Add(1)
	return rc
}

func (rc *refCloser) Close() error {
	if rc.n.Add(-1) == 0 {
		return rc.c.Close()
	}
	return nil
}

// engineState is one generation of the serving engine. refs counts the
// holder's own reference plus one per request currently using it; the
// closer fires when the count reaches zero.
type engineState struct {
	eng    *wdsparql.Engine
	snap   *SnapshotStats // nil when serving a parsed graph
	closer io.Closer      // backing resources (e.g. the mmap); may be nil
	refs   atomic.Int64
	plain  *plainTable
}

func newEngineState(eng *wdsparql.Engine, snap *SnapshotStats, closer io.Closer) *engineState {
	st := &engineState{eng: eng, snap: snap, closer: closer, plain: &plainTable{}}
	st.refs.Store(1) // the holder's reference, dropped on swap or shutdown
	return st
}

// plainTable is one generation's escape bits (extendPlain), built by
// the first request that streams from the generation rather than at
// load, so neither set-up nor an mmap cold start scans the dictionary.
// A generation derived by ApplyDelta or Refreeze starts from its
// parent's bits: term IDs are stable across both and the dictionary
// only grows, so its build scans just the IRIs the batch added.
type plainTable struct {
	once sync.Once
	base []byte                 // bits carried from an ancestor; read-only
	bits atomic.Pointer[[]byte] // set once by the build
}

// get returns the generation's escape bits, building them on first use.
func (t *plainTable) get(d *rdf.Dict) []byte {
	t.once.Do(func() {
		bits := extendPlain(t.base, d)
		t.bits.Store(&bits)
	})
	return *t.bits.Load()
}

// carry returns the table of a generation derived from this one: its
// base is this table's bits if they were built, else the base this
// one carries, so an unqueried generation never pins its parent.
func (t *plainTable) carry() *plainTable {
	if bits := t.bits.Load(); bits != nil {
		return &plainTable{base: *bits}
	}
	return &plainTable{base: t.base}
}

// retain takes a reference, failing only if the count already hit zero
// (the state was swapped out and every user finished — by then the
// holder points elsewhere, so the caller just reloads it).
func (st *engineState) retain() bool {
	for {
		r := st.refs.Load()
		if r <= 0 {
			return false
		}
		if st.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops a reference; the last one out closes the backing.
func (st *engineState) release() {
	if st.refs.Add(-1) == 0 && st.closer != nil {
		_ = st.closer.Close()
	}
}

// derive wraps a new engine generation built from this one (by
// ApplyDelta or Refreeze) in its own engineState, sharing the snapshot
// identity and a retained reference to the shared backing closer.
func (st *engineState) derive(eng *wdsparql.Engine) *engineState {
	var c io.Closer
	if rc, ok := st.closer.(*refCloser); ok {
		c = rc.retain()
	}
	next := newEngineState(eng, st.snap, c)
	next.plain = st.plain.carry()
	return next
}

// dict gives the response encoders this generation's decode dictionary.
func (st *engineState) dict() *rdf.Dict { return st.eng.Graph().Dict() }

// plainBits gives the response encoders this generation's escape bits.
func (st *engineState) plainBits() []byte { return st.plain.get(st.dict()) }

// engine retains and returns the current engine state, or nil once the
// server has shut down for good.
func (s *Server) engine() *engineState {
	for {
		st := s.cur.Load()
		if st == nil || st.retain() {
			return st
		}
		// The CAS lost to the final release. If a reload won, the holder
		// already points at the replacement — loop and take that. If the
		// pointer is unchanged, the server shut down: nothing to serve.
		if s.cur.Load() == st {
			return nil
		}
	}
}

// handleReload is POST /reload: build a fresh engine via the operator's
// Config.Reload closure and swap it in atomically. In-flight requests
// finish on the generation they started with; new requests see the new
// one immediately. Only configured when serving from a snapshot.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.replyError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "use POST"})
		return
	}
	if s.cfg.Reload == nil {
		s.replyError(w, &httpError{code: http.StatusNotImplemented,
			msg: "reload not configured (serve from a snapshot to enable it)"})
		return
	}
	if s.draining.Load() {
		s.unavailable(w, "draining")
		return
	}
	// One writer at a time: a reload racing a live ingest would tear
	// half-applied batches out from under the stream. The loser backs
	// off instead of queueing (TryLock) — an ingest can run for minutes.
	if !s.mutMu.TryLock() {
		s.unavailable(w, "writer busy (ingest or reload in progress)")
		return
	}
	defer s.mutMu.Unlock()

	eng, snap, closer, err := s.cfg.Reload()
	if err != nil {
		s.reloadFails.Add(1)
		s.replyError(w, &httpError{code: http.StatusInternalServerError,
			msg: fmt.Sprintf("reload failed; still serving the previous snapshot: %v", err)})
		return
	}
	if closer != nil {
		closer = newRefCloser(closer)
	}
	next := newEngineState(eng, snap, closer)
	old := s.cur.Swap(next)
	s.reloads.Add(1)
	if old != nil {
		old.release() // the old backing closes when its last request finishes
	}

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Reloaded bool           `json:"reloaded"`
		Triples  int            `json:"triples"`
		Snapshot *SnapshotStats `json:"snapshot,omitempty"`
	}{true, eng.Graph().Len(), snap})
}

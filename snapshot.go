package wdsparql

// Persistent snapshots at the engine level. The graph layer
// (internal/rdf) owns the wire format, the checksummed loaders and the
// validation battery; this file re-exports that API and adds the one
// composition the serving stack uses: snapshot file → sealed graph →
// Engine, in one call. See DESIGN.md §6 for the format.

import "wdsparql/internal/rdf"

// Re-exported snapshot types.
type (
	// Snapshot is a loaded snapshot: a sealed read-only graph plus
	// the resources (possibly an mmap) backing it. Close when done.
	Snapshot = rdf.Snapshot
	// SnapshotInfo describes a loaded or inspected snapshot.
	SnapshotInfo = rdf.SnapshotInfo
	// SnapshotMode selects the heap or mmap loader.
	SnapshotMode = rdf.SnapshotMode
	// SnapshotManifest is a snapshot file's header plus section table.
	SnapshotManifest = rdf.SnapshotManifest
)

// Snapshot load modes.
const (
	// SnapshotHeap reads the image into the heap.
	SnapshotHeap = rdf.SnapshotHeap
	// SnapshotMmap maps the image read-only: no copy, but load time is
	// still linear in image size, because the section checksums and
	// the structural checks read every section (about 40 ms at 100 MB
	// on a 2-CPU VM, with the checks spread over both CPUs).
	SnapshotMmap = rdf.SnapshotMmap
)

// LoadSnapshot loads and fully validates the snapshot at path. Graph
// write access goes through (*Graph).WriteSnapshot, which any Graph
// (including one built by GraphBuilder) exposes.
func LoadSnapshot(path string, mode SnapshotMode) (*Snapshot, error) {
	return rdf.LoadSnapshot(path, mode)
}

// InspectSnapshot validates and returns only the header and section
// table of a snapshot file, without reading the payload.
func InspectSnapshot(path string) (*SnapshotManifest, error) {
	return rdf.InspectSnapshot(path)
}

// ParseSnapshotMode parses the CLI spelling of a snapshot mode
// ("heap" or "mmap").
func ParseSnapshotMode(s string) (SnapshotMode, error) {
	return rdf.ParseSnapshotMode(s)
}

// NewEngineFromSnapshot loads the snapshot at path and builds an
// engine over its graph — the millisecond cold-start path: no parsing,
// no interning, no freeze; the arenas come straight off the image
// (page-faulted on demand in SnapshotMmap mode). The returned Snapshot
// owns the backing resources: close it only after the engine is no
// longer in use. Options apply as in NewEngine.
func NewEngineFromSnapshot(path string, mode SnapshotMode, opts ...Option) (*Engine, *Snapshot, error) {
	snap, err := rdf.LoadSnapshot(path, mode)
	if err != nil {
		return nil, nil, err
	}
	return NewEngine(snap.Graph(), opts...), snap, nil
}

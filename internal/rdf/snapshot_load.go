package rdf

// Snapshot loading: the adversarial half of the snapshot subsystem.
// parseImage reconstructs a sealed *Graph over one contiguous byte
// buffer — read into the heap or mmapped, the same code path — and is
// written on the assumption that the buffer is hostile: every field is
// bounds-checked, every section checksummed, and every structural
// invariant the query engine relies on for memory safety is verified
// before any unsafe slice cast reaches the engine. Corruption of any
// kind (truncation, bit flips, version skew, lying offsets) must
// surface as a descriptive error, never a panic, an out-of-bounds
// access, or an infinite probe loop.
//
// What is verified at load time, and why:
//
//   - header magic, version, endianness, header CRC, declared file
//     size — rejects foreign files, version skew, and truncation;
//   - section-table CRC, then per-section payload CRC — rejects any
//     random corruption of the image (this is the workhorse check);
//   - section offsets: in-bounds, 8-aligned, lengths exact for their
//     declared element counts — rejects lying offsets before any cast;
//   - CSR offset arrays: monotone, starting at 0, ending at the arena
//     length — every range1/range2 probe stays in bounds;
//   - every triple in every arena: all three TermIDs < nIRIs — decode
//     and occurrence lookups stay in bounds;
//   - arena grouping and key-column consistency (including within-
//     group sortedness of the secondary keys) — galloping search
//     operates on what it assumes;
//   - membership table: exact expected size, entries in-range or
//     absent, populated count equal to the triple count — the linear
//     probe terminates and indexes in bounds;
//   - dictionary: monotone string offsets, no duplicate IRIs.
//
// Deliberately left to VerifyDeep (wdsnap verify -deep): multiset
// equality of every arena against the triple slice and byte-exact
// equality against a from-scratch rebuild. Those are parse-priced
// checks; the load-time set above is what memory safety needs.
//
// Every section is read by as few passes as the checks allow: its CRC,
// and one structural pass (arenaCheck) per arena that covers the
// bounds, the grouping and the arena's key column together. These
// passes, the membership check and the dictionary build run as tasks on
// GOMAXPROCS workers. Which fault an image reports does not depend on
// that schedule: it is the first in a fixed order (crcRank, secRank).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// SnapshotMode selects how LoadSnapshot brings the image into memory.
type SnapshotMode int

const (
	// SnapshotHeap reads the whole file into the heap. Private, no
	// file dependency after load, works everywhere.
	SnapshotHeap SnapshotMode = iota + 1
	// SnapshotMmap maps the file read-only (no copy; pages are
	// shared across processes). Load cost is still linear in image
	// size: the section checksums and structural checks read every
	// arena. The file must outlive the Snapshot, and Close unmaps it.
	SnapshotMmap
)

func (m SnapshotMode) String() string {
	switch m {
	case SnapshotHeap:
		return "heap"
	case SnapshotMmap:
		return "mmap"
	}
	return fmt.Sprintf("SnapshotMode(%d)", int(m))
}

// ParseSnapshotMode parses the CLI spelling of a mode.
func ParseSnapshotMode(s string) (SnapshotMode, error) {
	switch s {
	case "heap":
		return SnapshotHeap, nil
	case "mmap":
		return SnapshotMmap, nil
	}
	return 0, fmt.Errorf("rdf: unknown snapshot mode %q (want heap or mmap)", s)
}

// SnapshotInfo describes a loaded (or inspected) snapshot.
type SnapshotInfo struct {
	Path     string
	Version  int
	Triples  int
	IRIs     int
	Checksum uint32 // the header's image CRC: the snapshot's identity
	FileSize int64
	Mode     SnapshotMode  // zero when inspected rather than loaded
	LoadTime time.Duration // wall time of LoadSnapshot
}

// Snapshot is a loaded snapshot: a sealed read-only graph plus the
// resources backing it. The graph's arenas (and, zero-copy, its
// dictionary strings) alias the snapshot's buffer, so the Snapshot
// must stay open as long as the graph is in use; Close unmaps an
// mmapped buffer and is idempotent.
type Snapshot struct {
	g    *Graph
	info SnapshotInfo

	mapping   []byte // non-nil iff mmapped
	closeOnce sync.Once
	closeErr  error
}

// Graph returns the loaded graph. It is frozen and safe for concurrent readers; callers must treat it as read-only
// and must not use it after Close.
func (s *Snapshot) Graph() *Graph { return s.g }

// Info returns the snapshot's metadata.
func (s *Snapshot) Info() SnapshotInfo { return s.info }

// Close releases the snapshot's backing resources (the mapping, when
// mmapped; a no-op for heap snapshots). The graph must not be used
// afterwards. Close is idempotent and safe for concurrent use.
func (s *Snapshot) Close() error {
	s.closeOnce.Do(func() {
		if s.mapping != nil {
			s.closeErr = munmapFile(s.mapping)
			s.mapping = nil
		}
	})
	return s.closeErr
}

// LoadSnapshot loads the snapshot at path into a sealed graph,
// validating the full checksum and structural battery of parseImage
// before returning. Every failure mode is a descriptive error.
func LoadSnapshot(path string, mode SnapshotMode) (*Snapshot, error) {
	start := time.Now()
	var data, mapping []byte
	switch mode {
	case SnapshotHeap:
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
		}
		data = b
	case SnapshotMmap:
		b, err := mmapFile(path)
		if err != nil {
			return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
		}
		data, mapping = b, b
	default:
		return nil, fmt.Errorf("rdf: snapshot %s: invalid mode %v", path, mode)
	}
	g, h, err := parseImage(data)
	if err != nil {
		if mapping != nil {
			_ = munmapFile(mapping)
		}
		return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	// Strings of a heap image live as long as any of them is referenced;
	// those of a mapping only until Close.
	g.dict.mapped = mapping != nil
	return &Snapshot{
		g: g,
		info: SnapshotInfo{
			Path:     path,
			Version:  int(h.version),
			Triples:  int(h.nTriples),
			IRIs:     int(h.nIRIs),
			Checksum: h.imageCRC,
			FileSize: int64(h.fileSize),
			Mode:     mode,
			LoadTime: time.Since(start),
		},
		mapping: mapping,
	}, nil
}

const maxInt = int(^uint(0) >> 1)

// decodeHeader validates and decodes the fixed header. Check order is
// a compatibility rule (DESIGN.md §6): magic first, then version —
// so a future version is reported as skew, not as a checksum failure
// of a layout it does not have — then the v1 header CRC, then the
// remaining v1 fields.
func decodeHeader(data []byte) (snapHeader, error) {
	var h snapHeader
	if len(data) < snapHeaderLen {
		return h, fmt.Errorf("file too small (%d bytes) to hold a snapshot header", len(data))
	}
	if string(data[0:8]) != snapMagic {
		return h, fmt.Errorf("bad magic %q: not a snapshot file", data[0:8])
	}
	h.version = binary.LittleEndian.Uint16(data[8:10])
	if h.version != snapVersion {
		return h, fmt.Errorf("unsupported snapshot version %d (this build reads version %d)", h.version, snapVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(data[60:64])
	if got := crc32.Checksum(data[0:60], snapCRC); got != wantCRC {
		return h, fmt.Errorf("header checksum mismatch (got %08x, header says %08x): corrupt header", got, wantCRC)
	}
	h.endian = data[10]
	if h.endian != nativeEndianMark() {
		return h, fmt.Errorf("snapshot written on a %s host cannot be loaded on this %s host",
			endianName(h.endian), endianName(nativeEndianMark()))
	}
	switch kind := data[11]; kind {
	case snapKindFrozen:
	case snapKindSharded:
		return h, fmt.Errorf("sharded images are no longer supported; rebuild with wdsnap build")
	default:
		return h, fmt.Errorf("unknown graph kind %d (want %d=frozen)", kind, snapKindFrozen)
	}
	if shards := binary.LittleEndian.Uint32(data[12:16]); shards != 1 {
		return h, fmt.Errorf("frozen snapshot declares %d shards (want 1)", shards)
	}
	h.nTriples = binary.LittleEndian.Uint64(data[16:24])
	h.nIRIs = binary.LittleEndian.Uint64(data[24:32])
	h.nSections = binary.LittleEndian.Uint32(data[32:36])
	h.imageCRC = binary.LittleEndian.Uint32(data[36:40])
	h.fileSize = binary.LittleEndian.Uint64(data[40:48])
	if h.nIRIs > uint64(VarIDBase) || h.nIRIs > uint64(maxInt) {
		return h, fmt.Errorf("implausible IRI count %d (dictionary bound is %d)", h.nIRIs, VarIDBase)
	}
	if h.nTriples >= uint64(frozenAbsent) || h.nTriples > uint64(maxInt) {
		return h, fmt.Errorf("implausible triple count %d (format bound is %d)", h.nTriples, frozenAbsent)
	}
	return h, nil
}

func endianName(e uint8) string {
	switch e {
	case snapLittleEndian:
		return "little-endian"
	case snapBigEndian:
		return "big-endian"
	}
	return fmt.Sprintf("unknown-endianness(%d)", e)
}

// secKey identifies a section by its kind.
type secKey uint16

func (k secKey) String() string { return secName(k) }

// snapKinds is the exact section set of a well-formed snapshot. The
// table must match it as a set: no duplicates, no unknowns, nothing
// missing — a snapshot is a closed-world artifact, not an extensible
// container.
var snapKinds = []secKey{
	secDictOffs, secDictBlob, secTriples, secOcc,
	secOffS, secOffP, secOffO,
	secArenaS, secArenaP, secArenaO,
	secArenaSP, secArenaPS, secArenaPO, secArenaOP, secArenaSO, secArenaOS,
	secKeySP, secKeyPS, secKeyPO, secKeyOP, secKeySO, secKeyOS,
	secMemb,
}

// parseTable validates the section table against the expected set and
// the file bounds, in table order, and returns the per-section payload
// slices with one pool task per section that verifies its payload CRC.
// The CRC checks outrank every structural check (crcRank), so an image
// reports a corrupt payload before anything its bytes would trip.
func parseTable(data []byte, h snapHeader) (map[secKey][]byte, []task, error) {
	if h.nSections != uint32(len(snapKinds)) {
		return nil, nil, fmt.Errorf("section count %d does not match the %d sections of a snapshot", h.nSections, len(snapKinds))
	}
	tableEnd := int64(snapHeaderLen) + int64(h.nSections)*snapEntryLen
	if tableEnd > int64(len(data)) {
		return nil, nil, fmt.Errorf("section table (%d entries) extends past end of file", h.nSections)
	}
	table := data[snapHeaderLen:tableEnd]
	if got := crc32.Checksum(table, snapCRC); got != h.imageCRC {
		return nil, nil, fmt.Errorf("section table checksum mismatch (got %08x, header says %08x): corrupt table", got, h.imageCRC)
	}
	want := make(map[secKey]bool, len(snapKinds))
	for _, k := range snapKinds {
		want[k] = true
	}
	secs := make(map[secKey][]byte, len(snapKinds))
	crcs := make([]task, 0, h.nSections)
	for i := 0; i < int(h.nSections); i++ {
		e := table[i*snapEntryLen:]
		k := secKey(binary.LittleEndian.Uint16(e[0:2]))
		crc := binary.LittleEndian.Uint32(e[4:8])
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if !want[k] {
			return nil, nil, fmt.Errorf("unexpected section %v in the table", k)
		}
		if shard := binary.LittleEndian.Uint16(e[2:4]); shard != 0 {
			return nil, nil, fmt.Errorf("section %v: reserved shard field is %d, want 0", k, shard)
		}
		if _, dup := secs[k]; dup {
			return nil, nil, fmt.Errorf("duplicate section %v in the table", k)
		}
		if off%8 != 0 {
			return nil, nil, fmt.Errorf("section %v: offset %d is not 8-aligned", k, off)
		}
		if off < uint64(tableEnd) || off > h.fileSize || length > h.fileSize-off {
			return nil, nil, fmt.Errorf("section %v: byte range [%d, %d+%d) lies outside the file (%d bytes)",
				k, off, off, length, h.fileSize)
		}
		b := data[off : off+length]
		secs[k] = b
		rank := crcRank(i)
		crcs = append(crcs, task{cost: len(b), run: func() fault {
			if got := crc32.Checksum(b, snapCRC); got != crc {
				return fault{rank, fmt.Errorf("section %v: payload checksum mismatch (got %08x, table says %08x): corrupt section", k, got, crc)}
			}
			return fault{}
		}})
	}
	return secs, crcs, nil
}

// A task is one load-time check that reads its sections and nothing
// else, so any set of them can run at once. cost is the bytes it reads,
// by which parseImage orders the pool's queue.
type task struct {
	cost int
	run  func() fault
}

// A fault is a failed check with its place in the fixed report order
// (crcRank, secRank): of all the faults an image has, the loader
// reports the lowest-ranked, so a given image always yields the same
// error however the tasks were scheduled. The zero fault is a pass.
type fault struct {
	rank int
	err  error
}

// precedes reports whether f is a fault that is reported ahead of g.
func (f fault) precedes(g fault) bool { return f.err != nil && (g.err == nil || f.rank < g.rank) }

// crcRank ranks the payload CRC of table entry i: CRCs are reported
// first, in table order.
func crcRank(i int) int { return i }

// secRank ranks the checks of section k's shape and contents: after
// every CRC, in snapKinds order — the dictionary, the triples, the
// occurrences, the offsets, the nine arenas, the six key columns, the
// membership table. Inside a section a check reports its first failing
// index.
func secRank(k secKey) int { return len(snapKinds) + slices.Index(snapKinds, k) }

// runTasks runs the tasks on GOMAXPROCS workers — the calling
// goroutine and GOMAXPROCS-1 others — each taking the next task in the
// order given, and returns the lowest-ranked fault any of them found
// (the zero fault if none). Every worker has exited when it returns.
func runTasks(tasks []task) fault {
	faults := make([]fault, len(tasks))
	var next atomic.Int32
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
			faults[i] = tasks[i].run()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	var first fault
	for _, f := range faults {
		if f.precedes(first) {
			first = f
		}
	}
	return first
}

// secAs extracts section k as a []T, requiring exactly wantLen
// elements (wantLen < 0 accepts any whole number of elements). The
// byte offset is 8-aligned and the buffer base is 8-aligned, so the
// cast itself is safe once the length divides. Lifetime: unsafe.Sizeof
// is a compile-time constant; the cast's lifetime is castSlice's.
func secAs[T snapWord](secs map[secKey][]byte, k secKey, wantLen int) ([]T, error) {
	b := secs[k]
	var z T
	sz := int(unsafe.Sizeof(z))
	if len(b)%sz != 0 {
		return nil, fmt.Errorf("section %v: %d bytes is not a whole number of %d-byte elements", k, len(b), sz)
	}
	n := len(b) / sz
	if wantLen >= 0 && n != wantLen {
		return nil, fmt.Errorf("section %v: %d elements, want %d", k, n, wantLen)
	}
	return castSlice[T](b), nil
}

// checkOffsets verifies a CSR offset array: starts at 0, monotone
// nondecreasing, ends at total. Every range probe in frozen.go indexes
// arenas through these; this check is what keeps those probes in
// bounds on hostile input.
func checkOffsets(k secKey, off []uint32, total uint32) error {
	if off[0] != 0 {
		return fmt.Errorf("section %v: offsets start at %d, want 0", k, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("section %v: offsets decrease at index %d (%d < %d)", k, i, off[i], off[i-1])
		}
	}
	if last := off[len(off)-1]; last != total {
		return fmt.Errorf("section %v: offsets end at %d, want the arena length %d", k, last, total)
	}
	return nil
}

// arenaCheck is the one pass over an arena section: every TermID of
// every triple below nIRIs — the bound that keeps dictionary decode,
// occurrence lookup and offset indexing in bounds — and, for a grouped
// arena, the CSR grouping: inside the group off gives ID id, every
// triple holds id at position pos. A secondarily sorted arena carries
// its key column, which the same pass checks to mirror position keyPos
// of the arena and to be sorted inside each group — the precondition
// of the galloping range search. The triples section (off nil) is in
// insertion order and has the bounds check alone. off has passed
// checkOffsets against len(arena), so the group walk stays in bounds.
type arenaCheck struct {
	kind, keyKind secKey
	arena         []IDTriple
	off           []uint32
	pos           int
	keys          []TermID // nil when the arena has none, or its section failed its shape
	keyPos        int
}

// run returns the arena's first failing index as a fault. A key-column
// failure ranks after every arena, so the pass goes on checking the
// arena alone after one, and an arena failure found later outranks it.
func (c arenaCheck) run(nIRIs int) fault {
	bound := TermID(nIRIs)
	outside := func(i int, t IDTriple) fault {
		return fault{secRank(c.kind), fmt.Errorf("section %v: triple %d holds term ID outside the dictionary (IDs %d/%d/%d, bound %d)",
			c.kind, i, t[0], t[1], t[2], nIRIs)}
	}
	if c.off == nil {
		for i, t := range c.arena {
			if max(t[0], t[1], t[2]) >= bound {
				return outside(i, t)
			}
		}
		return fault{}
	}
	var keyFault fault
	keys := c.keys
	for id := range len(c.off) - 1 {
		lo, hi := int(c.off[id]), int(c.off[id+1])
		for j, t := range c.arena[lo:hi] {
			if max(t[0], t[1], t[2]) >= bound {
				return outside(lo+j, t)
			}
			if t[c.pos] != TermID(id) {
				return fault{secRank(c.kind), fmt.Errorf("section %v: triple at arena index %d is in the group of ID %d but holds ID %d at position %d",
					c.kind, lo+j, id, t[c.pos], c.pos)}
			}
			if keys == nil {
				continue
			}
			i := lo + j
			if keys[i] != t[c.keyPos] {
				keyFault = fault{secRank(c.keyKind), fmt.Errorf("section %v: key column diverges from its arena at index %d", c.keyKind, i)}
				keys = nil
			} else if j > 0 && keys[i] < keys[i-1] {
				keyFault = fault{secRank(c.keyKind), fmt.Errorf("section %v: keys are unsorted inside the group of ID %d (index %d)", c.keyKind, id, i)}
				keys = nil
			}
		}
	}
	return keyFault
}

// task wraps the pass as a pool task.
func (c arenaCheck) task(nIRIs int) task {
	return task{cost: 12*len(c.arena) + 4*len(c.keys), run: func() fault { return c.run(nIRIs) }}
}

// membSize is the deterministic membership-table size buildMembership
// chooses for n triples. The loader insists on exactly this size: a
// table of any other size is structurally foreign, and an over-full
// table would turn the linear probe into an infinite loop.
func membSize(n int) int {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// checkMembership verifies the open-addressing table: exact expected
// size, every slot absent or a valid triple index, and exactly n
// populated slots — with size ≥ 2n that guarantees absent slots
// exist, so every probe terminates.
func checkMembership(k secKey, memb []uint32, n int) error {
	populated := 0
	for i, idx := range memb {
		if idx == frozenAbsent {
			continue
		}
		if int(idx) >= n {
			return fmt.Errorf("section %v: slot %d holds triple index %d, beyond the %d triples", k, i, idx, n)
		}
		populated++
	}
	if populated != n {
		return fmt.Errorf("section %v: %d populated slots, want %d: table does not cover the triples", k, populated, n)
	}
	return nil
}

// loadSections casts the triples, the occurrence table and the frozen
// view's sections over the buffer, checking element counts and the CSR
// offsets in report order, and returns the tasks that verify the
// sections' contents. The first section to fail a cast stops the rest
// and comes back as a fault, with the tasks of the sections before it,
// which outrank it.
func loadSections(secs map[secKey][]byte, nIRIs, n int) (*frozenView, []int32, []task, fault) {
	all, err := secAs[IDTriple](secs, secTriples, n)
	if err != nil {
		return nil, nil, nil, fault{secRank(secTriples), err}
	}
	tasks := []task{arenaCheck{kind: secTriples, arena: all}.task(nIRIs)}
	occ, err := secAs[int32](secs, secOcc, nIRIs)
	if err != nil {
		return nil, nil, tasks, fault{secRank(secOcc), err}
	}

	v := &frozenView{nIRIs: nIRIs, all: all}
	offSpecs := []struct {
		kind secKey
		dst  *[]uint32
	}{{secOffS, &v.offS}, {secOffP, &v.offP}, {secOffO, &v.offO}}
	for _, sp := range offSpecs {
		k := sp.kind
		off, err := secAs[uint32](secs, k, nIRIs+1)
		if err == nil {
			err = checkOffsets(k, off, uint32(n))
		}
		if err != nil {
			return nil, nil, tasks, fault{secRank(k), err}
		}
		*sp.dst = off
	}

	arenas := []arenaCheck{
		{kind: secArenaS, off: v.offS, pos: 0}, {kind: secArenaP, off: v.offP, pos: 1}, {kind: secArenaO, off: v.offO, pos: 2},
		{kind: secArenaSP, off: v.offS, pos: 0, keyKind: secKeySP, keyPos: 1},
		{kind: secArenaPS, off: v.offP, pos: 1, keyKind: secKeyPS, keyPos: 0},
		{kind: secArenaPO, off: v.offP, pos: 1, keyKind: secKeyPO, keyPos: 2},
		{kind: secArenaOP, off: v.offO, pos: 2, keyKind: secKeyOP, keyPos: 1},
		{kind: secArenaSO, off: v.offS, pos: 0, keyKind: secKeySO, keyPos: 2},
		{kind: secArenaOS, off: v.offO, pos: 2, keyKind: secKeyOS, keyPos: 0},
	}
	// Sections are cast in report order: the nine arenas, then the six
	// key columns. An arena cast before a failure keeps its task, with
	// the key column if that was cast too.
	var f fault
	cast := 0
	for ; cast < len(arenas); cast++ {
		a := &arenas[cast]
		if a.arena, err = secAs[IDTriple](secs, a.kind, n); err != nil {
			f = fault{secRank(a.kind), err}
			break
		}
	}
	for i := range arenas {
		a := &arenas[i]
		if f.err != nil {
			break
		}
		if a.keyKind == 0 {
			continue
		}
		if a.keys, err = secAs[TermID](secs, a.keyKind, n); err != nil {
			f = fault{secRank(a.keyKind), err}
		}
	}
	for _, a := range arenas[:cast] {
		tasks = append(tasks, a.task(nIRIs))
	}
	if f.err != nil {
		return nil, nil, tasks, f
	}
	memb, err := secAs[uint32](secs, secMemb, membSize(n))
	if err != nil {
		return nil, nil, tasks, fault{secRank(secMemb), err}
	}
	tasks = append(tasks, task{cost: 4 * len(memb), run: func() fault {
		if err := checkMembership(secMemb, memb, n); err != nil {
			return fault{secRank(secMemb), err}
		}
		return fault{}
	}})

	v.arenaS, v.arenaP, v.arenaO = arenas[0].arena, arenas[1].arena, arenas[2].arena
	v.arenaSP, v.arenaPS, v.arenaPO = arenas[3].arena, arenas[4].arena, arenas[5].arena
	v.arenaOP, v.arenaSO, v.arenaOS = arenas[6].arena, arenas[7].arena, arenas[8].arena
	v.keySP, v.keyPS, v.keyPO = arenas[3].keys, arenas[4].keys, arenas[5].keys
	v.keyOP, v.keySO, v.keyOS = arenas[6].keys, arenas[7].keys, arenas[8].keys
	v.memb = memb
	return v, occ, tasks, fault{}
}

// loadDict reconstructs the dictionary over the blob zero-copy: each
// IRI string aliases its bytes in the buffer, and only the lookup map
// is heap-built (it has no flat representation). Lifetime: the strings
// (unsafe.String) live exactly as long as the buffer. For a heap image
// that is as long as any of them is referenced; for a mapped one, until
// Snapshot.Close — LoadSnapshot marks the dictionary mapped, and
// Dict.StringOf then copies every string it hands out, so only
// StringRef's callers, which keep nothing, ever see the image.
func loadDict(secs map[secKey][]byte, nIRIs int) (*Dict, error) {
	ko, kb := secDictOffs, secDictBlob
	offs, err := secAs[uint64](secs, ko, nIRIs+1)
	if err != nil {
		return nil, err
	}
	blob := secs[kb]
	if offs[0] != 0 {
		return nil, fmt.Errorf("section %v: offsets start at %d, want 0", ko, offs[0])
	}
	for i := 1; i <= nIRIs; i++ {
		if offs[i] < offs[i-1] {
			return nil, fmt.Errorf("section %v: offsets decrease at index %d", ko, i)
		}
	}
	if offs[nIRIs] != uint64(len(blob)) {
		return nil, fmt.Errorf("section %v: offsets end at %d, want the blob length %d", ko, offs[nIRIs], len(blob))
	}
	d := &Dict{
		iriID: make(map[string]TermID, nIRIs),
		iris:  make([]string, nIRIs),
		varID: map[string]TermID{},
	}
	for i := 0; i < nIRIs; i++ {
		var s string
		if l := int(offs[i+1] - offs[i]); l > 0 {
			s = unsafe.String(&blob[offs[i]], l)
		}
		// One map operation per IRI: a duplicate shows as a map that
		// did not grow, and the scan for its first ID runs only then.
		d.iriID[s] = TermID(i)
		if len(d.iriID) != i+1 {
			return nil, fmt.Errorf("section %v: duplicate IRI %q (IDs %d and %d)", kb, s, slices.Index(d.iris[:i], s), i)
		}
		d.iris[i] = s
	}
	return d, nil
}

// parseImage validates and reconstructs a sealed graph from one
// contiguous snapshot image. See the file comment for the validation
// battery; data is assumed hostile throughout. The header and the
// table are checked in order; every check that reads the payload runs
// as a task on the pool of runTasks, and the image's error is the
// first of all their faults in report order (crcRank, secRank).
func parseImage(data []byte) (*Graph, snapHeader, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, h, err
	}
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Page mappings and Go heap buffers are both ≥ 8-aligned;
		// refusing here keeps the unsafe casts honest if a caller ever
		// hands in a sliced sub-buffer. Lifetime: the address is only
		// inspected; no pointer is derived from it.
		return nil, h, fmt.Errorf("image buffer is not 8-byte aligned")
	}
	if h.fileSize != uint64(len(data)) {
		return nil, h, fmt.Errorf("file is %d bytes but the header declares %d: truncated or padded image", len(data), h.fileSize)
	}
	secs, crcs, err := parseTable(data, h)
	if err != nil {
		return nil, h, err
	}
	nIRIs := int(h.nIRIs)
	v, occ, checks, first := loadSections(secs, nIRIs, int(h.nTriples))

	// The dictionary's map build takes longer than any other task, for
	// far fewer bytes: it goes first, the rest largest first.
	var dict *Dict
	tasks := append(crcs, checks...)
	slices.SortStableFunc(tasks, func(a, b task) int { return b.cost - a.cost })
	tasks = append([]task{{run: func() fault {
		var err error
		if dict, err = loadDict(secs, nIRIs); err != nil {
			return fault{secRank(secDictOffs), err}
		}
		return fault{}
	}}}, tasks...)
	if f := runTasks(tasks); f.precedes(first) {
		first = f
	}
	if first.err != nil {
		return nil, h, first.err
	}
	domSize := 0
	for _, c := range occ {
		if c > 0 {
			domSize++
		}
	}
	return &Graph{dict: dict, occ: occ, domSize: domSize, frz: v}, h, nil
}

// SnapshotSectionInfo is one row of a snapshot's section table, as
// reported by InspectSnapshot.
type SnapshotSectionInfo struct {
	Name   string
	Offset uint64
	Length uint64
	CRC    uint32
}

// SnapshotManifest is the metadata of a snapshot file: the decoded
// header plus the section table.
type SnapshotManifest struct {
	Info     SnapshotInfo
	Sections []SnapshotSectionInfo
}

// InspectSnapshot reads and validates only the header and section
// table of the snapshot at path (magic, version, header CRC, table
// CRC, section bounds) without touching the payload — cheap even for
// a multi-gigabyte image. Use LoadSnapshot (or wdsnap verify) for
// full payload verification.
func InspectSnapshot(path string) (*SnapshotManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	var hb [snapHeaderLen]byte
	if n, err := f.ReadAt(hb[:], 0); n < snapHeaderLen {
		return nil, fmt.Errorf("rdf: snapshot %s: file too small (%d bytes) to hold a snapshot header: %v", path, n, err)
	}
	h, err := decodeHeader(hb[:])
	if err != nil {
		return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	if h.fileSize != uint64(st.Size()) {
		return nil, fmt.Errorf("rdf: snapshot %s: file is %d bytes but the header declares %d: truncated or padded image", path, st.Size(), h.fileSize)
	}
	tableLen := int64(h.nSections) * snapEntryLen
	if int64(snapHeaderLen)+tableLen > st.Size() {
		return nil, fmt.Errorf("rdf: snapshot %s: section table (%d entries) extends past end of file", path, h.nSections)
	}
	table := make([]byte, tableLen)
	if _, err := f.ReadAt(table, snapHeaderLen); err != nil {
		return nil, fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	if got := crc32.Checksum(table, snapCRC); got != h.imageCRC {
		return nil, fmt.Errorf("rdf: snapshot %s: section table checksum mismatch (got %08x, header says %08x)", path, got, h.imageCRC)
	}
	m := &SnapshotManifest{Info: SnapshotInfo{
		Path:     path,
		Version:  int(h.version),
		Triples:  int(h.nTriples),
		IRIs:     int(h.nIRIs),
		Checksum: h.imageCRC,
		FileSize: st.Size(),
	}}
	for i := int64(0); i < int64(h.nSections); i++ {
		e := table[i*snapEntryLen:]
		si := SnapshotSectionInfo{
			Name:   secName(secKey(binary.LittleEndian.Uint16(e[0:2]))),
			CRC:    binary.LittleEndian.Uint32(e[4:8]),
			Offset: binary.LittleEndian.Uint64(e[8:16]),
			Length: binary.LittleEndian.Uint64(e[16:24]),
		}
		if si.Offset > h.fileSize || si.Length > h.fileSize-si.Offset {
			return nil, fmt.Errorf("rdf: snapshot %s: section %s: byte range [%d, %d+%d) lies outside the file",
				path, si.Name, si.Offset, si.Offset, si.Length)
		}
		m.Sections = append(m.Sections, si)
	}
	return m, nil
}

// VerifyDeep rebuilds every derived structure of the loaded graph from
// its triple slice — the frozen CSR view and the occurrence table —
// and compares byte for byte. This is the
// parse-priced semantic check the loader deliberately skips: it proves
// the snapshot's derived sections are exactly what freezing the triples
// would produce, so no probe can return a wrong answer.
func (s *Snapshot) VerifyDeep() error {
	g := s.g
	ni := g.dict.NumIRIs()
	occ := make([]int32, ni)
	for _, t := range g.frz.all {
		for _, id := range t {
			occ[id]++
		}
	}
	if !slices.Equal(occ, g.occ) {
		return fmt.Errorf("rdf: snapshot %s: occurrence table diverges from the triple set", s.info.Path)
	}
	return compareViews(s.info.Path, g.frz, freezeTriples(g.frz.all, nil, ni))
}

// compareViews compares every derived slice of two frozen views.
func compareViews(path string, got, want *frozenView) error {
	fail := func(which string) error {
		return fmt.Errorf("rdf: snapshot %s: frozen view: %s diverges from a rebuild", path, which)
	}
	switch {
	case !slices.Equal(got.offS, want.offS) || !slices.Equal(got.offP, want.offP) || !slices.Equal(got.offO, want.offO):
		return fail("offset arrays")
	case !slices.Equal(got.arenaS, want.arenaS) || !slices.Equal(got.arenaP, want.arenaP) || !slices.Equal(got.arenaO, want.arenaO):
		return fail("primary arenas")
	case !slices.Equal(got.arenaSP, want.arenaSP) || !slices.Equal(got.arenaPS, want.arenaPS) ||
		!slices.Equal(got.arenaPO, want.arenaPO) || !slices.Equal(got.arenaOP, want.arenaOP) ||
		!slices.Equal(got.arenaSO, want.arenaSO) || !slices.Equal(got.arenaOS, want.arenaOS):
		return fail("sorted arenas")
	case !slices.Equal(got.keySP, want.keySP) || !slices.Equal(got.keyPS, want.keyPS) ||
		!slices.Equal(got.keyPO, want.keyPO) || !slices.Equal(got.keyOP, want.keyOP) ||
		!slices.Equal(got.keySO, want.keySO) || !slices.Equal(got.keyOS, want.keyOS):
		return fail("key columns")
	case !slices.Equal(got.memb, want.memb):
		return fail("membership table")
	}
	return nil
}

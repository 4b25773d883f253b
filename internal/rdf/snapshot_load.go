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

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
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
// the file bounds and returns the per-section payload slices, each
// already CRC-verified.
func parseTable(data []byte, h snapHeader) (map[secKey][]byte, error) {
	if h.nSections != uint32(len(snapKinds)) {
		return nil, fmt.Errorf("section count %d does not match the %d sections of a snapshot", h.nSections, len(snapKinds))
	}
	tableEnd := int64(snapHeaderLen) + int64(h.nSections)*snapEntryLen
	if tableEnd > int64(len(data)) {
		return nil, fmt.Errorf("section table (%d entries) extends past end of file", h.nSections)
	}
	table := data[snapHeaderLen:tableEnd]
	if got := crc32.Checksum(table, snapCRC); got != h.imageCRC {
		return nil, fmt.Errorf("section table checksum mismatch (got %08x, header says %08x): corrupt table", got, h.imageCRC)
	}
	want := make(map[secKey]bool, len(snapKinds))
	for _, k := range snapKinds {
		want[k] = true
	}
	secs := make(map[secKey][]byte, len(snapKinds))
	for i := 0; i < int(h.nSections); i++ {
		e := table[i*snapEntryLen:]
		k := secKey(binary.LittleEndian.Uint16(e[0:2]))
		crc := binary.LittleEndian.Uint32(e[4:8])
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if !want[k] {
			return nil, fmt.Errorf("unexpected section %v in the table", k)
		}
		if shard := binary.LittleEndian.Uint16(e[2:4]); shard != 0 {
			return nil, fmt.Errorf("section %v: reserved shard field is %d, want 0", k, shard)
		}
		if _, dup := secs[k]; dup {
			return nil, fmt.Errorf("duplicate section %v in the table", k)
		}
		if off%8 != 0 {
			return nil, fmt.Errorf("section %v: offset %d is not 8-aligned", k, off)
		}
		if off < uint64(tableEnd) || off > h.fileSize || length > h.fileSize-off {
			return nil, fmt.Errorf("section %v: byte range [%d, %d+%d) lies outside the file (%d bytes)",
				k, off, off, length, h.fileSize)
		}
		b := data[off : off+length]
		if got := crc32.Checksum(b, snapCRC); got != crc {
			return nil, fmt.Errorf("section %v: payload checksum mismatch (got %08x, table says %08x): corrupt section", k, got, crc)
		}
		secs[k] = b
	}
	return secs, nil
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

// checkTriples verifies every TermID of every triple is an in-range
// IRI ID — the bound that keeps dictionary decode, occurrence lookup
// and offset indexing in bounds.
func checkTriples(k secKey, ts []IDTriple, nIRIs int) error {
	bound := TermID(nIRIs)
	for i, t := range ts {
		if t[0] >= bound || t[1] >= bound || t[2] >= bound {
			return fmt.Errorf("section %v: triple %d holds term ID outside the dictionary (IDs %d/%d/%d, bound %d)",
				k, i, t[0], t[1], t[2], nIRIs)
		}
	}
	return nil
}

// checkGrouped verifies the CSR grouping invariant: within the group
// that off assigns to key id, every triple holds id at position pos.
func checkGrouped(k secKey, arena []IDTriple, off []uint32, pos int) error {
	for id := 0; id < len(off)-1; id++ {
		for i := off[id]; i < off[id+1]; i++ {
			if arena[i][pos] != TermID(id) {
				return fmt.Errorf("section %v: triple at arena index %d is in the group of ID %d but holds ID %d at position %d",
					k, i, id, arena[i][pos], pos)
			}
		}
	}
	return nil
}

// checkKeys verifies a secondary key column: each entry mirrors the
// arena's secondary position, and keys are sorted within each group —
// the precondition of the galloping range search.
func checkKeys(k secKey, keys []TermID, arena []IDTriple, off []uint32, pos int) error {
	for i := range keys {
		if keys[i] != arena[i][pos] {
			return fmt.Errorf("section %v: key column diverges from its arena at index %d", k, i)
		}
	}
	for id := 0; id < len(off)-1; id++ {
		for i := off[id] + 1; i < off[id+1]; i++ {
			if keys[i] < keys[i-1] {
				return fmt.Errorf("section %v: keys are unsorted inside the group of ID %d (index %d)", k, id, i)
			}
		}
	}
	return nil
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

// loadView reconstructs and validates the frozen CSR view over the
// graph's triples all.
func loadView(secs map[secKey][]byte, nIRIs int, all []IDTriple) (*frozenView, error) {
	n := len(all)
	v := &frozenView{nIRIs: nIRIs, all: all}

	offSpecs := []struct {
		kind secKey
		dst  *[]uint32
	}{{secOffS, &v.offS}, {secOffP, &v.offP}, {secOffO, &v.offO}}
	for _, sp := range offSpecs {
		k := sp.kind
		off, err := secAs[uint32](secs, k, nIRIs+1)
		if err != nil {
			return nil, err
		}
		if err := checkOffsets(k, off, uint32(n)); err != nil {
			return nil, err
		}
		*sp.dst = off
	}

	arenaSpecs := []struct {
		kind secKey
		dst  *[]IDTriple
		off  []uint32
		pos  int
	}{
		{secArenaS, &v.arenaS, v.offS, 0}, {secArenaP, &v.arenaP, v.offP, 1}, {secArenaO, &v.arenaO, v.offO, 2},
		{secArenaSP, &v.arenaSP, v.offS, 0}, {secArenaPS, &v.arenaPS, v.offP, 1},
		{secArenaPO, &v.arenaPO, v.offP, 1}, {secArenaOP, &v.arenaOP, v.offO, 2},
		{secArenaSO, &v.arenaSO, v.offS, 0}, {secArenaOS, &v.arenaOS, v.offO, 2},
	}
	for _, sp := range arenaSpecs {
		k := sp.kind
		arena, err := secAs[IDTriple](secs, k, n)
		if err != nil {
			return nil, err
		}
		if err := checkTriples(k, arena, nIRIs); err != nil {
			return nil, err
		}
		if err := checkGrouped(k, arena, sp.off, sp.pos); err != nil {
			return nil, err
		}
		*sp.dst = arena
	}

	keySpecs := []struct {
		kind  secKey
		dst   *[]TermID
		arena []IDTriple
		off   []uint32
		pos   int
	}{
		{secKeySP, &v.keySP, v.arenaSP, v.offS, 1}, {secKeyPS, &v.keyPS, v.arenaPS, v.offP, 0},
		{secKeyPO, &v.keyPO, v.arenaPO, v.offP, 2}, {secKeyOP, &v.keyOP, v.arenaOP, v.offO, 1},
		{secKeySO, &v.keySO, v.arenaSO, v.offS, 2}, {secKeyOS, &v.keyOS, v.arenaOS, v.offO, 0},
	}
	for _, sp := range keySpecs {
		k := sp.kind
		keys, err := secAs[TermID](secs, k, n)
		if err != nil {
			return nil, err
		}
		if err := checkKeys(k, keys, sp.arena, sp.off, sp.pos); err != nil {
			return nil, err
		}
		*sp.dst = keys
	}

	k := secMemb
	memb, err := secAs[uint32](secs, k, membSize(n))
	if err != nil {
		return nil, err
	}
	if err := checkMembership(k, memb, n); err != nil {
		return nil, err
	}
	v.memb = memb
	return v, nil
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
		if prev, dup := d.iriID[s]; dup {
			return nil, fmt.Errorf("section %v: duplicate IRI %q (IDs %d and %d)", kb, s, prev, i)
		}
		d.iriID[s] = TermID(i)
		d.iris[i] = s
	}
	return d, nil
}

// parseImage validates and reconstructs a sealed graph from one
// contiguous snapshot image. See the file comment for the validation
// battery; data is assumed hostile throughout.
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
	secs, err := parseTable(data, h)
	if err != nil {
		return nil, h, err
	}
	nIRIs, nTriples := int(h.nIRIs), int(h.nTriples)

	dict, err := loadDict(secs, nIRIs)
	if err != nil {
		return nil, h, err
	}
	kAll := secTriples
	all, err := secAs[IDTriple](secs, kAll, nTriples)
	if err != nil {
		return nil, h, err
	}
	if err := checkTriples(kAll, all, nIRIs); err != nil {
		return nil, h, err
	}
	kOcc := secOcc
	occ, err := secAs[int32](secs, kOcc, nIRIs)
	if err != nil {
		return nil, h, err
	}
	domSize := 0
	for _, c := range occ {
		if c > 0 {
			domSize++
		}
	}
	v, err := loadView(secs, nIRIs, all)
	if err != nil {
		return nil, h, err
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

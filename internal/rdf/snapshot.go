package rdf

// Persistent snapshots: a versioned, checksummed binary image of a
// sealed graph — Dict plus the frozen CSR arenas — that
// loads back with zero parse cost. The format is deliberately dumb:
// a fixed little-endian header, a table of sections, and the arenas
// themselves written verbatim in native byte order, 8-aligned, each
// guarded by a CRC-32C. Loading (snapshot_load.go) is therefore a
// handful of bounds-checked unsafe slice casts over one contiguous
// buffer, which may be read into the heap or mmapped — the mmap path
// is what turns a multi-gigabyte graph restart into a page-cache
// warm-up instead of a parse.
//
// Wire layout (see DESIGN.md §6 for the normative description):
//
//	header   64 bytes, little-endian, CRC-guarded
//	table    nSections × 24-byte entries, little-endian,
//	         guarded as a whole by the header's imageCRC
//	payload  one 8-aligned byte range per section, native-endian,
//	         each guarded by its table entry's CRC
//
// Writes are crash-atomic: the image is written to a temp file in the
// destination directory, fsynced, closed, and renamed over the target;
// a crash at any point leaves either the old file or no file, never a
// torn one. All checksums are computed from the in-memory arenas
// before any byte hits the disk, so a snapshot that writes successfully
// verifies successfully.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"unsafe"
)

// Header geometry. The header is exactly snapHeaderLen bytes and the
// section table starts immediately after it; 64 + 24·n keeps every
// multiple-of-8 alignment decision trivial.
const (
	snapMagic     = "WDSNAP01"
	snapVersion   = 1
	snapHeaderLen = 64
	snapEntryLen  = 24
)

// Graph kinds stored in the header. Kind 2 was the sharded backend's;
// it stays reserved, and the loader rejects it by name.
const (
	snapKindFrozen  = 1
	snapKindSharded = 2
)

// Endianness marker stored in the header: payload sections are written
// in native byte order, and a loader on the other endianness must
// refuse the file rather than silently transpose every integer.
const (
	snapLittleEndian = 1
	snapBigEndian    = 2
)

// Section kinds. Each appears exactly once, with the table entry's
// reserved shard field 0. Kinds 5, 6 and 35–40 belonged to the sharded
// kind and stay unassigned.
const (
	secDictOffs secKey = 1 // []uint64, nIRIs+1 cumulative string offsets
	secDictBlob secKey = 2 // concatenated IRI bytes
	secTriples  secKey = 3 // []IDTriple, global insertion order
	secOcc      secKey = 4 // []int32, per-IRI occurrence counts

	secOffS    secKey = 16 // []uint32, nIRIs+1
	secOffP    secKey = 17
	secOffO    secKey = 18
	secArenaS  secKey = 19 // []IDTriple, one per triple
	secArenaP  secKey = 20
	secArenaO  secKey = 21
	secArenaSP secKey = 22
	secArenaPS secKey = 23
	secArenaPO secKey = 24
	secArenaOP secKey = 25
	secArenaSO secKey = 26
	secArenaOS secKey = 27
	secKeySP   secKey = 28 // []TermID, one per triple
	secKeyPS   secKey = 29
	secKeyPO   secKey = 30
	secKeyOP   secKey = 31
	secKeySO   secKey = 32
	secKeyOS   secKey = 33
	secMemb    secKey = 34 // []uint32, the open-addressing table
)

// secName names a section kind for error messages and wdsnap inspect.
func secName(kind secKey) string {
	names := map[secKey]string{
		secDictOffs: "dict-offsets", secDictBlob: "dict-blob",
		secTriples: "triples", secOcc: "occurrences",
		secOffS: "off-s", secOffP: "off-p", secOffO: "off-o",
		secArenaS: "arena-s", secArenaP: "arena-p", secArenaO: "arena-o",
		secArenaSP: "arena-sp", secArenaPS: "arena-ps", secArenaPO: "arena-po",
		secArenaOP: "arena-op", secArenaSO: "arena-so", secArenaOS: "arena-os",
		secKeySP: "key-sp", secKeyPS: "key-ps", secKeyPO: "key-po",
		secKeyOP: "key-op", secKeySO: "key-so", secKeyOS: "key-os",
		secMemb: "membership",
	}
	if n, ok := names[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", kind)
}

// snapCRC is the CRC-32C (Castagnoli) table; hardware-accelerated on
// amd64/arm64, which is what makes checksumming every section at load
// time affordable.
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// nativeLittle reports the byte order of this process, detected once.
// Lifetime: the unsafe read views a local for the one expression;
// nothing outlives it.
var nativeLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func nativeEndianMark() uint8 {
	if nativeLittle {
		return snapLittleEndian
	}
	return snapBigEndian
}

// snapWord constrains the element types that cross the byte boundary:
// fixed-size integer records with no pointers. IDTriple is [3]TermID,
// 12 bytes, align 4 — every payload offset is 8-aligned, which is
// stricter than any of these require.
type snapWord interface {
	uint32 | uint64 | int32 | TermID | IDTriple
}

// rawBytes returns the raw native-endian bytes of s without copying.
// Lifetime: the bytes alias s's backing array, so they are valid as long
// as s is (a pointer into it keeps it alive); the writer copies them to
// the file at once and keeps nothing.
func rawBytes[T snapWord](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// castSlice reinterprets b as a []T without copying. The caller must
// have verified alignment and that len(b) is a multiple of the element
// size (parseImage does, for every section, before any cast).
// Lifetime: the []T aliases b. A heap image stays alive while any such
// slice is referenced; a mapped one (SnapshotMmap) is unmapped by
// Snapshot.Close, after which the graph's arenas must not be read —
// the graph itself is documented as dead after Close, and nothing it
// hands out (decoded strings included, see Dict.StringOf) points here.
func castSlice[T snapWord](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(z)))
}

// snapSection is one section during writing: its identity and its raw
// payload bytes.
type snapSection struct {
	kind secKey
	data []byte
}

// snapHeader is the decoded fixed header.
type snapHeader struct {
	version   uint16
	endian    uint8
	nTriples  uint64
	nIRIs     uint64
	nSections uint32
	imageCRC  uint32 // CRC-32C of the section table bytes
	fileSize  uint64
}

// encodeHeader lays the header out into its 64 little-endian bytes.
// Offsets: magic[0:8], version[8:10], endian[10], kind[11],
// shards[12:16] (always 1), nTriples[16:24], nIRIs[24:32],
// nSections[32:36], imageCRC[36:40], fileSize[40:48], reserved[48:60]
// (zero), headerCRC[60:64] over bytes [0:60].
func encodeHeader(h snapHeader) [snapHeaderLen]byte {
	var b [snapHeaderLen]byte
	copy(b[0:8], snapMagic)
	binary.LittleEndian.PutUint16(b[8:10], h.version)
	b[10] = h.endian
	b[11] = snapKindFrozen
	binary.LittleEndian.PutUint32(b[12:16], 1)
	binary.LittleEndian.PutUint64(b[16:24], h.nTriples)
	binary.LittleEndian.PutUint64(b[24:32], h.nIRIs)
	binary.LittleEndian.PutUint32(b[32:36], h.nSections)
	binary.LittleEndian.PutUint32(b[36:40], h.imageCRC)
	binary.LittleEndian.PutUint64(b[40:48], h.fileSize)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], snapCRC))
	return b
}

// dictSections serialises the IRI table as cumulative offsets plus a
// concatenated blob. Variables are never serialised: variable IDs are
// per-process scratch minted by the solvers, not graph state.
func dictSections(d *Dict) []snapSection {
	iris := d.irisAll() // chain-aware: a forked dict serialises parent prefix + extension
	offs := make([]uint64, len(iris)+1)
	total := 0
	for i, s := range iris {
		total += len(s)
		offs[i+1] = uint64(total)
	}
	blob := make([]byte, 0, total)
	for _, s := range iris {
		blob = append(blob, s...)
	}
	return []snapSection{
		{kind: secDictOffs, data: rawBytes(offs)},
		{kind: secDictBlob, data: blob},
	}
}

// snapshotSections flattens a frozen graph into its section list.
func snapshotSections(g *Graph) []snapSection {
	v := g.frz
	return append(dictSections(g.dict),
		snapSection{kind: secTriples, data: rawBytes(g.all)},
		snapSection{kind: secOcc, data: rawBytes(g.occ)},
		snapSection{kind: secOffS, data: rawBytes(v.offS)},
		snapSection{kind: secOffP, data: rawBytes(v.offP)},
		snapSection{kind: secOffO, data: rawBytes(v.offO)},
		snapSection{kind: secArenaS, data: rawBytes(v.arenaS)},
		snapSection{kind: secArenaP, data: rawBytes(v.arenaP)},
		snapSection{kind: secArenaO, data: rawBytes(v.arenaO)},
		snapSection{kind: secArenaSP, data: rawBytes(v.arenaSP)},
		snapSection{kind: secArenaPS, data: rawBytes(v.arenaPS)},
		snapSection{kind: secArenaPO, data: rawBytes(v.arenaPO)},
		snapSection{kind: secArenaOP, data: rawBytes(v.arenaOP)},
		snapSection{kind: secArenaSO, data: rawBytes(v.arenaSO)},
		snapSection{kind: secArenaOS, data: rawBytes(v.arenaOS)},
		snapSection{kind: secKeySP, data: rawBytes(v.keySP)},
		snapSection{kind: secKeyPS, data: rawBytes(v.keyPS)},
		snapSection{kind: secKeyPO, data: rawBytes(v.keyPO)},
		snapSection{kind: secKeyOP, data: rawBytes(v.keyOP)},
		snapSection{kind: secKeySO, data: rawBytes(v.keySO)},
		snapSection{kind: secKeyOS, data: rawBytes(v.keyOS)},
		snapSection{kind: secMemb, data: rawBytes(v.memb)},
	)
}

// WriteSnapshot writes the graph as a snapshot image at path,
// crash-atomically: the bytes go to a temp file in path's directory,
// are fsynced, and the temp file is renamed over path. WriteSnapshot
// freezes the graph first (folding any overlay), since only the frozen
// arenas have a flat representation.
func (g *Graph) WriteSnapshot(path string) error {
	g.Freeze()
	secs := snapshotSections(g)

	// Lay out the payload: sections follow the table in order, each
	// padded to 8-byte alignment. 64 + 24·n is already a multiple of 8,
	// so the first section needs no padding.
	tableLen := len(secs) * snapEntryLen
	cur := uint64(snapHeaderLen + tableLen)
	table := make([]byte, tableLen)
	offs := make([]uint64, len(secs))
	for i, s := range secs {
		cur = (cur + 7) &^ 7
		offs[i] = cur
		e := table[i*snapEntryLen:]
		binary.LittleEndian.PutUint16(e[0:2], uint16(s.kind))
		binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(s.data, snapCRC))
		binary.LittleEndian.PutUint64(e[8:16], cur)
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.data)))
		cur += uint64(len(s.data))
	}
	hdr := encodeHeader(snapHeader{
		version:   snapVersion,
		endian:    nativeEndianMark(),
		nTriples:  uint64(len(g.all)),
		nIRIs:     uint64(g.dict.NumIRIs()),
		nSections: uint32(len(secs)),
		imageCRC:  crc32.Checksum(table, snapCRC),
		fileSize:  cur,
	})

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	w := bufio.NewWriterSize(tmp, 1<<20)
	written := uint64(0)
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += uint64(n)
		return err
	}
	if err := emit(hdr[:]); err != nil {
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	if err := emit(table); err != nil {
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	var pad [8]byte
	for i, s := range secs {
		if written < offs[i] {
			if err := emit(pad[:offs[i]-written]); err != nil {
				return fmt.Errorf("rdf: snapshot %s: %w", path, err)
			}
		}
		if err := emit(s.data); err != nil {
			return fmt.Errorf("rdf: snapshot %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("rdf: snapshot %s: %w", path, err)
	}
	// Persist the rename itself; best-effort — some filesystems refuse
	// directory fsync, and the rename is already atomic without it.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// WriteSnapshot seals the builder's accumulated triples into a frozen
// graph, writes the snapshot image at path, and returns the graph
// (which remains fully usable). The builder must not be used
// afterwards, as with Graph.
func (b *GraphBuilder) WriteSnapshot(path string) (*Graph, error) {
	g := b.Graph()
	if err := g.WriteSnapshot(path); err != nil {
		return nil, err
	}
	return g, nil
}

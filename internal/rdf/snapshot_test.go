package rdf_test

// Snapshot round-trip and fault-injection tests. The round-trip half
// instantiates the full differential backend suite over write→load
// cycles (both loaders), pinning a loaded snapshot to
// byte-identical streams with the unsealed reference. The fault-
// injection half takes a valid image and breaks it every way the
// format documents — truncation at every boundary, a bit flip in
// every header/table byte and every section payload, version skew,
// endianness skew, lying offsets — and asserts each load fails with
// a descriptive error rather than a panic (the suite runs under
// -race in CI, so torn loads would also surface here).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// roundTrip writes g as a snapshot in dir and loads it back in the
// given mode. The returned Snapshot is registered for cleanup.
func roundTrip(t *testing.T, dir string, seq *int, g *rdf.Graph, mode rdf.SnapshotMode) *rdf.Snapshot {
	t.Helper()
	*seq++
	path := filepath.Join(dir, fmt.Sprintf("g%d.wdsnap", *seq))
	if err := g.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := rdf.LoadSnapshot(path, mode)
	if err != nil {
		t.Fatalf("LoadSnapshot(%v): %v", mode, err)
	}
	t.Cleanup(func() { snap.Close() })
	return snap
}

// TestSnapshotBackendSuite runs the differential backend suite over
// snapshot round-trips: every read of a loaded graph must be
// byte-identical (content and order) to the unsealed reference,
// for both loaders.
func TestSnapshotBackendSuite(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mode rdf.SnapshotMode
	}{
		{"frozen/heap", rdf.SnapshotHeap},
		{"frozen/mmap", rdf.SnapshotMmap},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			seq := 0
			backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
				return roundTrip(t, dir, &seq, rdf.GraphFromTriples(ts), cfg.mode).Graph()
			})
		})
	}
}

// testGraph builds a deterministic graph with every structural feature
// the format serialises: multi-triple groups, shared predicates and
// objects, and self-loops.
func testGraph(t *testing.T) []rdf.Triple {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < 60; i++ {
		s := fmt.Sprintf("n%d", i)
		o := fmt.Sprintf("n%d", (i*7+3)%60)
		p := fmt.Sprintf("p%d", i%5)
		ts = append(ts, rdf.T(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)))
		if i%9 == 0 {
			ts = append(ts, rdf.T(rdf.IRI(s), rdf.IRI("loop"), rdf.IRI(s)))
		}
	}
	return ts
}

// writeTestSnapshot writes a snapshot of the deterministic test graph
// and returns its path and raw bytes.
func writeTestSnapshot(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "test.wdsnap")
	if err := rdf.GraphFromTriples(testGraph(t)).WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestSnapshotInfoAndInspect(t *testing.T) {
	dir := t.TempDir()
	path, data := writeTestSnapshot(t, dir)
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	info := snap.Info()
	g := snap.Graph()
	if info.Triples != g.Len() || info.IRIs != g.Dict().NumIRIs() {
		t.Errorf("Info counts %d/%d disagree with graph %d/%d", info.Triples, info.IRIs, g.Len(), g.Dict().NumIRIs())
	}
	if info.FileSize != int64(len(data)) {
		t.Errorf("Info.FileSize = %d, want %d", info.FileSize, len(data))
	}
	if info.Mode != rdf.SnapshotHeap || info.Version != 1 {
		t.Errorf("Info mode/version = %v/%d", info.Mode, info.Version)
	}

	m, err := rdf.InspectSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Info.Checksum != info.Checksum || m.Info.Triples != info.Triples {
		t.Errorf("Inspect disagrees with Load: %+v vs %+v", m.Info, info)
	}
	if len(m.Sections) == 0 {
		t.Fatal("Inspect returned no sections")
	}
	var payload uint64
	for _, s := range m.Sections {
		payload += s.Length
	}
	if payload > uint64(len(data)) {
		t.Errorf("section lengths sum to %d, beyond the %d-byte file", payload, len(data))
	}
}

func TestSnapshotVerifyDeep(t *testing.T) {
	path, _ := writeTestSnapshot(t, t.TempDir())
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		snap, err := rdf.LoadSnapshot(path, mode)
		if err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		if err := snap.VerifyDeep(); err != nil {
			t.Errorf("mode=%v: VerifyDeep: %v", mode, err)
		}
		snap.Close()
	}
}

// TestSnapshotBuilderWrite covers the GraphBuilder path and the
// write-unsealed path (WriteSnapshot freezes on demand).
func TestSnapshotBuilderWrite(t *testing.T) {
	dir := t.TempDir()
	b := rdf.NewGraphBuilder(8)
	b.AddTriple("a", "p", "b")
	b.AddTriple("b", "p", "c")
	path := filepath.Join(dir, "built.wdsnap")
	g, err := b.WriteSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.HasOverlay() || g.Len() != 2 {
		t.Fatalf("builder returned graph overlay=%v len=%d", g.HasOverlay(), g.Len())
	}
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Info().Triples != 2 {
		t.Errorf("loaded %d triples, want 2", snap.Info().Triples)
	}

	unsealed := rdf.GraphOf(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.IRI("y")))
	path2 := filepath.Join(dir, "unsealed.wdsnap")
	if err := unsealed.WriteSnapshot(path2); err != nil {
		t.Fatalf("WriteSnapshot of unsealed graph: %v", err)
	}
	if unsealed.HasOverlay() {
		t.Error("WriteSnapshot must fold the overlay")
	}

	if err := rdf.GraphOf().WriteSnapshot(filepath.Join(dir, "no/such/dir/x.wdsnap")); err == nil {
		t.Error("WriteSnapshot into a missing directory must fail")
	}
}

// TestSnapshotConcurrentReaders hammers one loaded graph from many
// goroutines; under -race this pins the loaded graph's concurrent-
// reader contract.
func TestSnapshotConcurrentReaders(t *testing.T) {
	path, _ := writeTestSnapshot(t, t.TempDir())
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	g := snap.Graph()
	ids := g.TriplesID()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += 2 {
				tr := ids[i]
				if !g.ContainsID(tr) {
					t.Errorf("lost triple %v", tr)
					return
				}
				g.MatchCountID(rdf.IDTriple{tr[0], rdf.VarID(0), rdf.VarID(1)})
				g.CandidatesID(rdf.IDTriple{rdf.VarID(0), tr[1], tr[2]})
			}
		}(w)
	}
	wg.Wait()
}

// --- fault injection ---------------------------------------------------

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fixHeaderCRC recomputes the header checksum after a deliberate
// header edit, so the test reaches the validation the edit targets
// instead of tripping the CRC first. The offsets pin DESIGN.md §6.
func fixHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], castagnoli))
}

// fixTableCRC recomputes the section-table checksum (and then the
// header's) after a deliberate table edit.
func fixTableCRC(b []byte) {
	n := int(binary.LittleEndian.Uint32(b[32:36]))
	binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[64:64+24*n], castagnoli))
	fixHeaderCRC(b)
}

// mustFailLoad writes img to a file and asserts that loading it fails
// with a descriptive error — and does not panic — in both modes.
func mustFailLoad(t *testing.T, dir, desc string, img []byte) {
	t.Helper()
	path := filepath.Join(dir, "corrupt.wdsnap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s (%v): load panicked: %v", desc, mode, r)
				}
			}()
			snap, err := rdf.LoadSnapshot(path, mode)
			if err == nil {
				snap.Close()
				t.Errorf("%s (%v): load succeeded, want an error", desc, mode)
				return
			}
			if strings.TrimSpace(err.Error()) == "" {
				t.Errorf("%s (%v): empty error message", desc, mode)
			}
		}()
	}
}

// mutated returns a copy of data with f applied.
func mutated(data []byte, f func(b []byte)) []byte {
	b := make([]byte, len(data))
	copy(b, data)
	f(b)
	return b
}

// TestSnapshotCorruption runs one fault-injection battery against
// two images of testGraph: shards=0 is the frozen image this build
// writes; shards=3 is testdata/sharded3.wdsnap, a three-shard image of
// the retired sharded kind as earlier builds wrote it. No variant of
// either may load, and none may panic the loader.
func TestSnapshotCorruption(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			data := corruptionImage(t, dir, shards)

			t.Run("truncation", func(t *testing.T) {
				cuts := []int{0, 1, 7, 8, 63, 64, 65, len(data) / 2, len(data) - 1}
				for _, n := range cuts {
					mustFailLoad(t, dir, fmt.Sprintf("truncated to %d bytes", n), data[:n])
				}
			})

			t.Run("trailing-garbage", func(t *testing.T) {
				mustFailLoad(t, dir, "appended bytes", append(append([]byte{}, data...), 0xAA, 0xBB))
			})

			t.Run("not-a-snapshot", func(t *testing.T) {
				mustFailLoad(t, dir, "text file", []byte("a p b .\na p c .\nthis is not a snapshot\n"))
				junk := make([]byte, 4096)
				for i := range junk {
					junk[i] = byte(i*131 + 17)
				}
				mustFailLoad(t, dir, "random bytes", junk)
			})

			// Flip every byte of the CRC-covered header+table prefix:
			// each single flip must be caught.
			t.Run("prefix-bit-flips", func(t *testing.T) {
				nSec := int(binary.LittleEndian.Uint32(data[32:36]))
				prefix := 64 + 24*nSec
				for off := 0; off < prefix; off++ {
					img := mutated(data, func(b []byte) { b[off] ^= 0x40 })
					mustFailLoad(t, dir, fmt.Sprintf("bit flip at byte %d", off), img)
				}
			})

			// Flip a byte in the middle of every non-empty section
			// payload: the per-section CRC must catch it.
			t.Run("payload-bit-flips", func(t *testing.T) {
				nSec := int(binary.LittleEndian.Uint32(data[32:36]))
				for entry := 0; entry < nSec; entry++ {
					base := 64 + 24*entry
					off := binary.LittleEndian.Uint64(data[base+8 : base+16])
					n := binary.LittleEndian.Uint64(data[base+16 : base+24])
					if n == 0 {
						continue
					}
					img := mutated(data, func(b []byte) { b[off+n/2] ^= 0x01 })
					mustFailLoad(t, dir, fmt.Sprintf("bit flip in section entry %d", entry), img)
				}
			})

			t.Run("version-skew", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					binary.LittleEndian.PutUint16(b[8:10], 2)
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "future version", img)
				assertLoadErrContains(t, dir, img, "version")
			})

			t.Run("endian-skew", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					b[10] ^= 3 // 1 <-> 2
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "foreign endianness", img)
				assertLoadErrContains(t, dir, img, "endian")
			})

			// Kind 2 was the sharded backend's: it is rejected by name — on
			// load in both modes and on inspect — not as an unknown kind. A
			// sharded image relabelled frozen (kind 1, one shard) gets past
			// the header, so the section parser must refuse its layout.
			t.Run("unknown-kind", func(t *testing.T) {
				kinds := []byte{2, 9}
				if shards > 0 {
					kinds = append(kinds, 1)
				}
				for _, kind := range kinds {
					img := mutated(data, func(b []byte) {
						b[11] = kind
						binary.LittleEndian.PutUint32(b[12:16], 1)
						fixHeaderCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("kind %d", kind), img)
					if kind == 2 {
						assertLoadErrContains(t, dir, img, "sharded")
					}
				}
			})

			t.Run("lying-counts", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					binary.LittleEndian.PutUint64(b[16:24], 1<<40) // nTriples
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "inflated triple count", img)
				img = mutated(data, func(b []byte) {
					binary.LittleEndian.PutUint64(b[24:32], 1<<62) // nIRIs
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "inflated IRI count", img)
			})

			// Lying offsets, CRCs patched so only the bounds check can
			// catch them: the classic would-index-out-of-bounds attack.
			t.Run("lying-offsets", func(t *testing.T) {
				for entry := 0; entry < 3; entry++ {
					base := 64 + 24*entry
					img := mutated(data, func(b []byte) {
						binary.LittleEndian.PutUint64(b[base+8:base+16], uint64(len(b))+4096)
						fixTableCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("entry %d offset past EOF", entry), img)
					img = mutated(data, func(b []byte) {
						binary.LittleEndian.PutUint64(b[base+16:base+24], uint64(len(b))*2)
						fixTableCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("entry %d length past EOF", entry), img)
					img = mutated(data, func(b []byte) {
						off := binary.LittleEndian.Uint64(b[base+8 : base+16])
						binary.LittleEndian.PutUint64(b[base+8:base+16], off+1) // misaligned
						fixTableCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("entry %d misaligned offset", entry), img)
				}
			})

			t.Run("duplicate-section", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					copy(b[64+24:64+48], b[64:64+24]) // entry 1 := entry 0
					fixTableCRC(b)
				})
				mustFailLoad(t, dir, "duplicated table entry", img)
			})
		})
	}
}

// Section kinds of the table entries (DESIGN.md §6), for the forged
// faults below.
const (
	kindDictOffs = 1
	kindDictBlob = 2
	kindTriples  = 3
	kindOffS     = 16
	kindOffP     = 17
	kindOffO     = 18
	kindArenaS   = 19
	kindArenaO   = 21
	kindArenaSP  = 22
	kindArenaOS  = 27
	kindKeySP    = 28
	kindKeyPO    = 30
	kindMemb     = 34
)

// entry returns the table entry of the section of the given kind in
// img.
func entry(t *testing.T, img []byte, kind uint16) []byte {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(img[32:36]))
	for i := 0; i < n; i++ {
		if e := img[64+24*i : 64+24*(i+1)]; binary.LittleEndian.Uint16(e[0:2]) == kind {
			return e
		}
	}
	t.Fatalf("no section of kind %d", kind)
	return nil
}

// payload returns the bytes of the section of the given kind in img.
func payload(t *testing.T, img []byte, kind uint16) []byte {
	e := entry(t, img, kind)
	off, l := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
	return img[off : off+l]
}

// shorten cuts the section of the given kind by one 4-byte element in
// the table, so its payload no longer has the length its count needs.
func shorten(t *testing.T, img []byte, kind uint16) {
	e := entry(t, img, kind)
	binary.LittleEndian.PutUint64(e[16:24], binary.LittleEndian.Uint64(e[16:24])-4)
}

// reseal recomputes every payload CRC of the table, then the table's
// and the header's, so a forged payload reaches the structural checks.
func reseal(img []byte) {
	n := int(binary.LittleEndian.Uint32(img[32:36]))
	for i := 0; i < n; i++ {
		e := img[64+24*i:]
		off, l := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
		binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(img[off:off+l], castagnoli))
	}
	fixTableCRC(img)
}

// u32 reads and sets little-endian 32-bit words: a TermID, a CSR
// offset or a membership slot (images are written little-endian here;
// TestSnapshotStructuralFaults skips on a big-endian host).
func u32(b []byte, i int) uint32       { return binary.LittleEndian.Uint32(b[4*i:]) }
func setU32(b []byte, i int, v uint32) { binary.LittleEndian.PutUint32(b[4*i:], v) }

// loadErr writes img and loads it in mode, failing the test on a
// panic or a successful load; it returns the error text.
func loadErr(t *testing.T, dir string, img []byte, mode rdf.SnapshotMode) string {
	t.Helper()
	path := filepath.Join(dir, "forged.wdsnap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%v load panicked: %v", mode, r)
		}
	}()
	snap, err := rdf.LoadSnapshot(path, mode)
	if err == nil {
		snap.Close()
		t.Fatalf("%v load succeeded, want an error", mode)
	}
	return err.Error()
}

// TestSnapshotStructuralFaults forges one fault at a time into a valid
// image of testGraph and re-seals every CRC, so only the loader's
// structural checks stand between the fault and the engine. Each must
// fail the load in both modes with that check's own message, naming
// the section — never a panic, and never the message of another check.
// Two more cases forge faults into two sections: one requires the same
// error, the first in report order, on every one of 50 loads; the other
// that a section of the wrong length does not hide a fault before it.
func TestSnapshotStructuralFaults(t *testing.T) {
	dir := t.TempDir()
	_, data := writeTestSnapshot(t, dir)
	if data[10] != 1 {
		t.Skip("the forged words are little-endian")
	}
	n := int(binary.LittleEndian.Uint64(data[16:24]))
	nIRIs := uint32(binary.LittleEndian.Uint64(data[24:32]))
	mid := n / 2

	type forged struct {
		name  string
		forge func(t *testing.T, img []byte) string // forges the fault, returns the expected message
	}
	var cases []forged
	for _, sec := range []struct {
		name string
		kind uint16
	}{{"triples", kindTriples}, {"arena-s", kindArenaS}, {"arena-sp", kindArenaSP}} {
		for pos := 0; pos < 3; pos++ {
			cases = append(cases, forged{fmt.Sprintf("id-bound/%s/pos%d", sec.name, pos), func(t *testing.T, img []byte) string {
				b := payload(t, img, sec.kind)
				setU32(b, 3*mid+pos, nIRIs)
				tr := [3]uint32{u32(b, 3*mid), u32(b, 3*mid+1), u32(b, 3*mid+2)}
				return fmt.Sprintf("section %s: triple %d holds term ID outside the dictionary (IDs %d/%d/%d, bound %d)",
					sec.name, mid, tr[0], tr[1], tr[2], nIRIs)
			}})
		}
	}
	cases = append(cases,
		forged{"wrong-group", func(t *testing.T, img []byte) string {
			b := payload(t, img, kindArenaO)
			was := u32(b, 3*mid+2)
			setU32(b, 3*mid+2, (was+1)%nIRIs)
			return fmt.Sprintf("section arena-o: triple at arena index %d is in the group of ID %d but holds ID %d at position 2",
				mid, was, (was+1)%nIRIs)
		}},
		forged{"key-mirror", func(t *testing.T, img []byte) string {
			keys := payload(t, img, kindKeySP)
			setU32(keys, mid, u32(keys, mid)+1)
			return fmt.Sprintf("section key-sp: key column diverges from its arena at index %d", mid)
		}},
		forged{"key-order", func(t *testing.T, img []byte) string {
			// Swap two neighbouring triples of one subject group, and
			// their keys: grouping and mirror hold, the order does not.
			arena, keys := payload(t, img, kindArenaSP), payload(t, img, kindKeySP)
			for i := 0; i+1 < n; i++ {
				if u32(arena, 3*i) != u32(arena, 3*i+3) || u32(keys, i) == u32(keys, i+1) {
					continue
				}
				tmp := append([]byte(nil), arena[12*i:12*i+12]...)
				copy(arena[12*i:12*i+12], arena[12*i+12:12*i+24])
				copy(arena[12*i+12:12*i+24], tmp)
				ki, kj := u32(keys, i), u32(keys, i+1)
				setU32(keys, i, kj)
				setU32(keys, i+1, ki)
				return fmt.Sprintf("section key-sp: keys are unsorted inside the group of ID %d (index %d)", u32(arena, 3*i), i+1)
			}
			t.Fatal("no subject group with two distinct predicates")
			return ""
		}},
		forged{"offsets-start", func(t *testing.T, img []byte) string {
			setU32(payload(t, img, kindOffS), 0, 1)
			return "section off-s: offsets start at 1, want 0"
		}},
		forged{"offsets-decrease", func(t *testing.T, img []byte) string {
			off := payload(t, img, kindOffP)
			i := 1
			for u32(off, i-1) == 0 {
				i++
			}
			setU32(off, i, u32(off, i-1)-1)
			return fmt.Sprintf("section off-p: offsets decrease at index %d (%d < %d)", i, u32(off, i), u32(off, i-1))
		}},
		forged{"offsets-end-short", func(t *testing.T, img []byte) string {
			// The last ID's group must be non-empty in the array cut
			// short, or the cut would read as a decrease.
			for _, sec := range []struct {
				name string
				kind uint16
			}{{"off-s", kindOffS}, {"off-p", kindOffP}, {"off-o", kindOffO}} {
				off := payload(t, img, sec.kind)
				if int(u32(off, int(nIRIs)-1)) < n {
					setU32(off, int(nIRIs), uint32(n-1))
					return fmt.Sprintf("section %s: offsets end at %d, want the arena length %d", sec.name, n-1, n)
				}
			}
			t.Fatal("every offset array ends in an empty group")
			return ""
		}},
		forged{"key-column-short", func(t *testing.T, img []byte) string {
			shorten(t, img, kindKeyPO)
			return fmt.Sprintf("section key-po: %d elements, want %d", n-1, n)
		}},
		forged{"membership-past-n", func(t *testing.T, img []byte) string {
			memb := payload(t, img, kindMemb)
			i := 0
			for u32(memb, i) == ^uint32(0) {
				i++
			}
			setU32(memb, i, uint32(n))
			return fmt.Sprintf("section membership: slot %d holds triple index %d, beyond the %d triples", i, n, n)
		}},
		forged{"membership-short", func(t *testing.T, img []byte) string {
			memb := payload(t, img, kindMemb)
			i := 0
			for u32(memb, i) == ^uint32(0) {
				i++
			}
			setU32(memb, i, ^uint32(0))
			return fmt.Sprintf("section membership: %d populated slots, want %d: table does not cover the triples", n-1, n)
		}},
		forged{"dict-offsets-decrease", func(t *testing.T, img []byte) string {
			offs := payload(t, img, kindDictOffs)
			binary.LittleEndian.PutUint64(offs[8*2:], binary.LittleEndian.Uint64(offs[8*1:])-1)
			return "section dict-offsets: offsets decrease at index 2"
		}},
		forged{"duplicate-iri", func(t *testing.T, img []byte) string {
			// Overwrite the first later IRI of the same length as IRI 0
			// with IRI 0's bytes.
			offs, blob := payload(t, img, kindDictOffs), payload(t, img, kindDictBlob)
			at := func(i int) int { return int(binary.LittleEndian.Uint64(offs[8*i:])) }
			first := blob[at(0):at(1)]
			for i := 1; i < int(nIRIs); i++ {
				if at(i+1)-at(i) == len(first) {
					copy(blob[at(i):at(i+1)], first)
					return fmt.Sprintf("section dict-blob: duplicate IRI %q (IDs 0 and %d)", first, i)
				}
			}
			t.Fatal("no IRI as long as IRI 0")
			return ""
		}},
	)
	modes := []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := mutated(data, func([]byte) {})
			want := c.forge(t, img)
			reseal(img)
			for _, mode := range modes {
				if got := loadErr(t, dir, img, mode); !strings.HasSuffix(got, ": "+want) {
					t.Errorf("%v load: error %q, want it to end in %q", mode, got, want)
				}
			}
		})
	}

	// Two faults: a key column that diverges, checked by the pass over
	// arena-sp, and a bound in arena-os, a later pass. Every arena ranks
	// before every key column, so arena-os's fault is the one reported,
	// whichever pass finishes first.
	t.Run("two-sections", func(t *testing.T) {
		img := mutated(data, func([]byte) {})
		keys := payload(t, img, kindKeySP)
		setU32(keys, 1, u32(keys, 1)+1)
		arena := payload(t, img, kindArenaOS)
		setU32(arena, 3*mid+1, nIRIs)
		want := fmt.Sprintf("section arena-os: triple %d holds term ID outside the dictionary (IDs %d/%d/%d, bound %d)",
			mid, u32(arena, 3*mid), nIRIs, u32(arena, 3*mid+2), nIRIs)
		reseal(img)
		for i := 0; i < 50; i++ {
			if got := loadErr(t, dir, img, modes[i%2]); !strings.HasSuffix(got, ": "+want) {
				t.Fatalf("load %d (%v): error %q, want it to end in %q", i, modes[i%2], got, want)
			}
		}
	})

	// A key column of the wrong length stops the casts, but the arenas
	// cast before it are still checked, and their faults outrank it.
	t.Run("fault-before-short-section", func(t *testing.T) {
		img := mutated(data, func([]byte) {})
		shorten(t, img, kindKeyPO)
		arena := payload(t, img, kindArenaO)
		was := u32(arena, 3*mid+2)
		setU32(arena, 3*mid+2, (was+1)%nIRIs)
		want := fmt.Sprintf("section arena-o: triple at arena index %d is in the group of ID %d but holds ID %d at position 2",
			mid, was, (was+1)%nIRIs)
		reseal(img)
		for _, mode := range modes {
			if got := loadErr(t, dir, img, mode); !strings.HasSuffix(got, ": "+want) {
				t.Errorf("%v load: error %q, want it to end in %q", mode, got, want)
			}
		}
	})
}

// corruptionImage returns the raw bytes of the image the corruption
// battery starts from: a fresh frozen image of testGraph for shards=0,
// the checked-in sharded image otherwise.
func corruptionImage(t *testing.T, dir string, shards int) []byte {
	t.Helper()
	if shards == 0 {
		_, data := writeTestSnapshot(t, dir)
		return data
	}
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("sharded%d.wdsnap", shards)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertLoadErrContains loads img in both modes and inspects it, and
// asserts every error mentions want — a header rejection must be
// descriptive, not just non-nil, whichever way the image is opened.
func assertLoadErrContains(t *testing.T, dir string, img []byte, want string) {
	t.Helper()
	path := filepath.Join(dir, "described.wdsnap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		snap, err := rdf.LoadSnapshot(path, mode)
		if err == nil {
			snap.Close()
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v load: error %v does not mention %q", mode, err, want)
		}
	}
	if _, err := rdf.InspectSnapshot(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("inspect: error %v does not mention %q", err, want)
	}
}

// TestSnapshotFormatStable pins the image of a fixed 24-triple graph
// to the SHA-256 recorded before the sharded kind was retired: the
// frozen wire format must not move by one byte, so images written by
// earlier builds keep loading. The digest is of a little-endian image.
func TestSnapshotFormatStable(t *testing.T) {
	const want = "4634292645e7bdfa87dfba5be47ec59d058fd1894ad11c442c31ee5da0c9f0cf"
	ts := make([]rdf.Triple, 0, 24)
	for i := 0; i < 24; i++ {
		ts = append(ts, rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex.org/s%d", i%5)),
			rdf.IRI(fmt.Sprintf("http://ex.org/p%d", i%3)),
			rdf.IRI(fmt.Sprintf("http://ex.org/o%d", i%7))))
	}
	path := filepath.Join(t.TempDir(), "stable.wdsnap")
	if err := rdf.GraphFromTriples(ts).WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[10] != 1 {
		t.Skip("the pinned digest is of a little-endian image")
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("frozen image of the fixed graph: %d bytes, sha256 %s, want %s", len(data), got, want)
	}
}

// A snapshot written from a tiered graph folds every tier first: its
// bytes are those of a bulk build over the same triples, whatever the
// split — a base carrying a sealed delta and an overlay, built in
// process or over a mapped base image.
func TestSnapshotOfTieredGraphIsBulkImage(t *testing.T) {
	ts := testGraph(t)
	n := len(ts)
	dir := t.TempDir()
	write := func(name string, g *rdf.Graph) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := g.WriteSnapshot(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("bulk.wdsnap", rdf.GraphFromTriples(ts))
	tiered := backendtest.TierGraph(ts, n/2, 3*n/4)
	if tiered.DeltaLen() == 0 || !tiered.HasOverlay() {
		t.Fatal("the twin has no delta tier or no overlay")
	}
	served := roundTrip(t, dir, new(int), rdf.GraphFromTriples(ts[:n/2]), rdf.SnapshotMmap).Graph().Fork()
	for i, tr := range ts[n/2:] {
		if i == n/4 {
			served.Freeze()
		}
		served.Add(tr)
	}
	if served.DeltaLen() == 0 {
		t.Fatal("the served graph has no delta tier")
	}
	for name, g := range map[string]*rdf.Graph{"tiered": tiered, "served": served} {
		if got := write(name+".wdsnap", g); string(got) != string(want) {
			t.Errorf("%s graph: a %d-byte image differs from the %d-byte bulk build", name, len(got), len(want))
		}
	}
}

func TestSnapshotLoadMissingFile(t *testing.T) {
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		if _, err := rdf.LoadSnapshot(filepath.Join(t.TempDir(), "nope.wdsnap"), mode); err == nil {
			t.Errorf("mode %v: loading a missing file succeeded", mode)
		}
	}
}

// BenchmarkLoadSnapshot times LoadSnapshot of one generated image in
// both modes; MB/s is image bytes per second. The image holds 200,000
// triples over 50,000 subjects, 16 predicates and a skewed object
// range (about 33 MB), so it does not fit in cache and every check of
// the loader reads memory.
func BenchmarkLoadSnapshot(b *testing.B) {
	const triples = 200_000
	bl := rdf.NewGraphBuilder(triples)
	x := uint64(1)
	for bl.Len() < triples {
		x = x*6364136223846793005 + 1442695040888963407
		s, p := (x>>33)%50_000, (x>>20)%16
		o := (x >> 40) % (1 + (x>>10)%60_000)
		bl.AddTriple(fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", p), fmt.Sprintf("o%d", o))
	}
	path := filepath.Join(b.TempDir(), "bench.wdsnap")
	if _, err := bl.WriteSnapshot(path); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotMmap, rdf.SnapshotHeap} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(st.Size())
			for i := 0; i < b.N; i++ {
				snap, err := rdf.LoadSnapshot(path, mode)
				if err != nil {
					b.Fatal(err)
				}
				snap.Close()
			}
		})
	}
}

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

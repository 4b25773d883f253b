package rdf

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadGraph pins the hardening contract of the N-Triples reader:
// arbitrary input yields a graph or an error, never a panic — and an
// accepted graph is internally consistent (every triple it reports
// holding is found by Contains).
func FuzzReadGraph(f *testing.F) {
	f.Add("a p b .\n")
	f.Add("a p b .\nb p c .")
	f.Add("# comment\n\na p b .\r\n")
	f.Add("bad triple\n")
	f.Add("a p .\n")
	f.Add("a p b c .\n")
	f.Add(strings.Repeat("x", 4097) + " p b .\n")
	f.Add("\x00\xff\xfe p b .\n")
	f.Add("a p \"literal with spaces\" .\n")
	f.Fuzz(func(t *testing.T, src string) {
		// A small cap exercises the long-line path; the default cap is
		// the same code with a bigger bound.
		g, err := ReadGraphMaxLine(strings.NewReader(src), 4096)
		if err != nil {
			if g != nil {
				t.Fatal("ReadGraphMaxLine returned both a graph and an error")
			}
			return
		}
		n := 0
		for _, tr := range g.Triples() {
			if !g.Contains(tr) {
				t.Fatalf("graph does not contain its own triple %v", tr)
			}
			n++
		}
		if n != g.Len() {
			t.Fatalf("Triples() yielded %d, Len() = %d", n, g.Len())
		}
	})
}

// FuzzLoadSnapshot pins the hardening contract of the snapshot
// loader: arbitrary bytes yield a graph or a descriptive error, never
// a panic — and an accepted image decodes to an internally consistent
// graph. It fuzzes parseImage directly (the shared core of both the
// heap and mmap loaders), seeded with a valid frozen image, the same
// image under a kind-2 header (the retired sharded kind, which must be
// rejected by name), and targeted corruptions of each.
func FuzzLoadSnapshot(f *testing.F) {
	g := NewGraph()
	for i := 0; i < 24; i++ {
		g.AddTriple(fmt.Sprintf("s%d", i%7), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i))
	}
	path := filepath.Join(f.TempDir(), "seed.wdsnap")
	if err := g.WriteSnapshot(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	kind2 := append([]byte(nil), data...)
	kind2[11] = snapKindSharded
	binary.LittleEndian.PutUint32(kind2[60:64], crc32.Checksum(kind2[0:60], snapCRC))
	for _, img := range [][]byte{data, kind2} {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:snapHeaderLen])
		flipped := append([]byte(nil), img...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Copy into a fresh allocation: parseImage requires an
		// 8-aligned base (file reads and mappings always are; fuzz
		// slices may be tiny-allocator sub-buffers).
		buf := make([]byte, len(data)+8)[:len(data)]
		copy(buf, data)
		g, h, err := parseImage(buf)
		if err != nil {
			if g != nil {
				t.Fatal("parseImage returned both a graph and an error")
			}
			return
		}
		if uint64(g.Len()) != h.nTriples || uint64(g.dict.NumIRIs()) != h.nIRIs {
			t.Fatalf("accepted image decodes to %d/%d triples/IRIs, header says %d/%d",
				g.Len(), g.dict.NumIRIs(), h.nTriples, h.nIRIs)
		}
		for _, id := range g.TriplesID() {
			if !g.ContainsID(id) {
				t.Fatalf("graph does not contain its own triple %v", id)
			}
			g.dict.DecodeTriple(id) // must not panic: IDs validated
		}
		g.Dom()
	})
}

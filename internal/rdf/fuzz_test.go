package rdf

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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

// parseDataLineRef is the string-based line parser ParseDataLine
// replaced, kept verbatim as FuzzParseDataLine's reference.
func parseDataLineRef(line string) (s, p, o string, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", "", "", false, nil
	}
	line = strings.TrimSuffix(line, ".")
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return "", "", "", false, fmt.Errorf("expected 3 terms, got %d", len(fields))
	}
	var terms [3]Term
	for i, f := range fields {
		t, err := parseDataTermRef(f)
		if err != nil {
			return "", "", "", false, err
		}
		terms[i] = t
	}
	return terms[0].Value, terms[1].Value, terms[2].Value, true, nil
}

func parseDataTermRef(f string) (Term, error) {
	if strings.HasPrefix(f, "?") {
		return Term{}, fmt.Errorf("variable %q not allowed in data", f)
	}
	if strings.HasPrefix(f, "<") {
		if !strings.HasSuffix(f, ">") {
			return Term{}, fmt.Errorf("unterminated IRI %q", f)
		}
		f = strings.TrimSuffix(strings.TrimPrefix(f, "<"), ">")
	}
	if f == "" {
		return Term{}, fmt.Errorf("empty term")
	}
	return IRI(f), nil
}

// FuzzParseDataLine is the byte parser's differential check: on any
// input it must agree with the string parser it replaced on ok, the
// three terms and the error text — Unicode white space, invalid UTF-8
// and every malformed shape included.
func FuzzParseDataLine(f *testing.F) {
	for _, seed := range []string{
		"a p b .",
		" a p b . ",
		"\u00a0a\u00a0p\u00a0b\u00a0.\u00a0",
		"a\u0085p\u0085b\u0085",
		"a\u2003p b\u2003.",
		"\u3000a\u3000p\u3000b\u3000.\u3000",
		"a p b\u00a0",
		"a\vp\fb .\r\n",
		"\va p b\f",
		"a p b .\r",
		"\xff p b .",
		"a \xe3\x80 b .",
		"a p b .\xe3\x80\x80\x80",
		"a\xc2 p b",
		"a p b..",
		"<a> <b> <>",
		"<a p b",
		"?x p o",
		"  # c",
		"<> p b .",
		"< p b .",
		"a p",
		"a p b c .",
		".",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ws, wp, wo, wok, werr := parseDataLineRef(line)
		gs, gp, go_, gok, gerr := ParseDataLine([]byte(line))
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%q: error %v, want %v", line, gerr, werr)
		}
		if gok != wok || string(gs) != ws || string(gp) != wp || string(go_) != wo {
			t.Fatalf("%q: (%q, %q, %q, %v), want (%q, %q, %q, %v)", line, gs, gp, go_, gok, ws, wp, wo, wok)
		}
		// DecodeTriples hands out the terms as substrings of one copy of
		// the line: the same values, through the same parser.
		if strings.Contains(line, "\n") || strings.HasPrefix(line, "\x1f\x8b") {
			return
		}
		var got []string
		derr := DecodeTriples(strings.NewReader(line), 0, func(s, p, o string) error {
			got = append(got, s, p, o)
			return nil
		})
		if (werr == nil) != (derr == nil) || (werr != nil && derr.Error() != "rdf: line 1: "+werr.Error()) {
			t.Fatalf("%q: DecodeTriples error %v, want %v", line, derr, werr)
		}
		if want := []string{ws, wp, wo}; wok != (len(got) == 3) || (wok && !slices.Equal(got, want)) {
			t.Fatalf("%q: DecodeTriples yielded %q, want %q (ok=%v)", line, got, want, wok)
		}
	})
}

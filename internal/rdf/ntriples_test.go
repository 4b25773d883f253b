package rdf

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"
)

// Regression tests for the ReadGraph line handling: the reader used to
// cap lines at a fixed 1 MiB scanner buffer and surface an overlong
// line as a bare "rdf: read: token too long" with no line number.

// TestReadGraphLongLine pins that a line far beyond the old 1 MiB
// scanner cap parses fine under the default bound.
func TestReadGraphLongLine(t *testing.T) {
	long := strings.Repeat("x", 2<<20) // 2 MiB IRI, over the old cap
	src := fmt.Sprintf("a p b .\n%s p c .\nd p e .", long)
	g, err := ReadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	if !g.Contains(T(IRI(long), IRI("p"), IRI("c"))) {
		t.Fatal("long-IRI triple missing")
	}
}

// TestReadGraphMaxLineExceeded pins the error shape for a line beyond
// the configured bound: it must name the offending line and the bound,
// and must not depend on how much of the line was buffered.
func TestReadGraphMaxLineExceeded(t *testing.T) {
	long := strings.Repeat("y", 4096)
	src := fmt.Sprintf("a p b .\nc p d .\n%s p e .\nf p g .", long)
	_, err := ReadGraphMaxLine(strings.NewReader(src), 1024)
	if err == nil {
		t.Fatal("ReadGraphMaxLine accepted an overlong line")
	}
	for _, want := range []string{"line 3", "1024"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestReadGraphMaxLineBoundary pins that the bound counts the line
// content without its terminator: a line of exactly maxLine bytes
// parses, one byte more fails.
func TestReadGraphMaxLineBoundary(t *testing.T) {
	line := "aaaa p b ." // 10 bytes
	g, err := ReadGraphMaxLine(strings.NewReader(line+"\n"), len(line))
	if err != nil || g.Len() != 1 {
		t.Fatalf("exact-bound line rejected: %v", err)
	}
	if _, err := ReadGraphMaxLine(strings.NewReader(line+"\n"), len(line)-1); err == nil {
		t.Fatal("over-bound line accepted")
	}
}

// TestReadGraphNoTrailingNewline pins that the final unterminated line
// is still parsed.
func TestReadGraphNoTrailingNewline(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("a p b .\nc p d ."))
	if err != nil || g.Len() != 2 {
		t.Fatalf("got %v, err %v; want 2 triples", g, err)
	}
}

// TestReadGraphLineNumbersAfterLongLines pins that syntax errors after
// a multi-fragment line still carry the right line number.
func TestReadGraphLineNumbersAfterLongLines(t *testing.T) {
	long := strings.Repeat("z", 256<<10)
	src := fmt.Sprintf("%s p c .\n\n# comment\nbad triple", long)
	_, err := ReadGraph(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %v does not name line 4", err)
	}
}

// gzipped compresses src with gzip at the default level.
func gzipped(t *testing.T, src string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(src)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadGraphGzip pins the transparent gzip path: the same source
// parses to the same graph whether plain or gzipped, and the detection
// is by magic bytes, not file names.
func TestReadGraphGzip(t *testing.T) {
	src := "a p b .\nb p c .\nc q a .\n"
	want, err := ReadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(bytes.NewReader(gzipped(t, src)))
	if err != nil {
		t.Fatalf("gzipped ReadGraph: %v", err)
	}
	if g.Len() != want.Len() {
		t.Fatalf("gzipped Len = %d, plain Len = %d", g.Len(), want.Len())
	}
	for _, tr := range want.Triples() {
		if !g.Contains(tr) {
			t.Fatalf("gzipped graph lacks %v", tr)
		}
	}
}

// TestReadGraphGzipTruncated pins that a truncated gzip stream is an
// error, never a silently shorter graph: the gzip trailer CRC must be
// seen before EOF is believed.
func TestReadGraphGzipTruncated(t *testing.T) {
	full := gzipped(t, "a p b .\nb p c .\nc q a .\n")
	for _, cut := range []int{len(full) - 1, len(full) - 8, len(full) / 2, 3} {
		if _, err := ReadGraph(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes parsed without error", cut, len(full))
		}
	}
}

// TestReadGraphGzipCorrupt pins that flipping payload bits surfaces as
// an error (inflate failure or trailer CRC mismatch).
func TestReadGraphGzipCorrupt(t *testing.T) {
	full := gzipped(t, strings.Repeat("a p b .\n", 64))
	bad := append([]byte(nil), full...)
	bad[len(bad)/2] ^= 0x40
	if _, err := ReadGraph(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt gzip stream parsed without error")
	}
}

// TestReadGraphNotGzip pins that a graph whose first line merely
// resembles binary is still treated as text: only the exact two-byte
// gzip magic triggers decompression.
func TestReadGraphNotGzip(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("\x1fx p b .\n"))
	if err != nil || g.Len() != 1 {
		t.Fatalf("near-magic text input: %v, %v", g, err)
	}
}

// TestReadGraphGzipLineNumbers pins that syntax errors in gzipped
// input carry decompressed line numbers: the same broken dump must
// name the same line whether it arrives plain or gzipped. Line
// accounting must never derive from the raw (compressed) byte stream.
func TestReadGraphGzipLineNumbers(t *testing.T) {
	src := "a p b .\nb p c .\n# comment\n\nbad triple here extra\n"
	_, plainErr := ReadGraph(strings.NewReader(src))
	if plainErr == nil || !strings.Contains(plainErr.Error(), "line 5") {
		t.Fatalf("plain error %v does not name line 5", plainErr)
	}
	_, gzErr := ReadGraph(bytes.NewReader(gzipped(t, src)))
	if gzErr == nil || !strings.Contains(gzErr.Error(), "line 5") {
		t.Fatalf("gzipped error %v does not name line 5", gzErr)
	}
	if plainErr.Error() != gzErr.Error() {
		t.Fatalf("plain and gzipped errors diverge: %q vs %q", plainErr, gzErr)
	}
}

// TestReadGraphWithProgress pins the progress contract: bytes are
// monotone raw input bytes, the final callback reports the full input
// size and the count of distinct triples appended — a repeated line
// adds none — which is the graph's Len, for plain and gzipped input
// alike. TestLoadProgress is its twin for the parallel loader.
func TestReadGraphWithProgress(t *testing.T) {
	var distinct, twice strings.Builder
	for i := 0; i < 40000; i++ {
		fmt.Fprintf(&distinct, "s%d p o%d .\n", i, i%97)
		fmt.Fprintf(&twice, "s%d p o%d .\n", i/2, i/2%97)
	}
	for _, tc := range []struct {
		src             string
		wantCalls, want int
	}{
		{distinct.String(), 2, 40000},
		{twice.String(), 2, 20000},
		{strings.Repeat("a p b .\n", 5) + "c p d .\n", 1, 2},
	} {
		for _, mode := range []string{"plain", "gzip"} {
			data := []byte(tc.src)
			if mode == "gzip" {
				data = gzipped(t, tc.src)
			}
			var calls int
			var lastBytes int64
			var lastTriples int
			g, err := ReadGraphWithProgress(bytes.NewReader(data), func(b int64, n int) {
				calls++
				if b < lastBytes || n < lastTriples {
					t.Fatalf("%s: progress went backwards: (%d,%d) after (%d,%d)", mode, b, n, lastBytes, lastTriples)
				}
				lastBytes, lastTriples = b, n
			})
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if calls < tc.wantCalls {
				t.Fatalf("%s: only %d progress callbacks for %d triples", mode, calls, tc.want)
			}
			if lastTriples != g.Len() || g.Len() != tc.want {
				t.Fatalf("%s: final triples %d, graph %d, want %d", mode, lastTriples, g.Len(), tc.want)
			}
			if lastBytes != int64(len(data)) {
				t.Fatalf("%s: final bytes %d, input is %d", mode, lastBytes, len(data))
			}
		}
	}
}

// TestDecodeTriplesCallbackError pins that an error returned by the
// callback aborts the decode and is returned unwrapped.
func TestDecodeTriplesCallbackError(t *testing.T) {
	sentinel := fmt.Errorf("stop here")
	seen := 0
	err := DecodeTriples(strings.NewReader("a p b .\nc p d .\ne p f .\n"), 0, func(s, p, o string) error {
		seen++
		if seen == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || seen != 2 {
		t.Fatalf("err=%v seen=%d; want the sentinel after 2 triples", err, seen)
	}
}

// TestParseDataLine pins the shared line parser the ingest workers use:
// blank/comment lines are skipped without error, angle brackets are
// stripped, malformed lines error.
func TestParseDataLine(t *testing.T) {
	for _, tc := range []struct {
		line    string
		s, p, o string
		ok      bool
		wantErr bool
	}{
		{"a p b .", "a", "p", "b", true, false},
		{"<http://x/a> <http://x/p> <http://x/b> .", "http://x/a", "http://x/p", "http://x/b", true, false},
		{"  a p b  ", "a", "p", "b", true, false},
		{"", "", "", "", false, false},
		{"   ", "", "", "", false, false},
		{"# comment", "", "", "", false, false},
		{"a p", "", "", "", false, true},
		{"a p b c .", "", "", "", false, true},
		{"?v p b .", "", "", "", false, true},
		{"<unterminated p b .", "", "", "", false, true},
	} {
		bs, bp, bo, ok, err := ParseDataLine([]byte(tc.line))
		s, p, o := string(bs), string(bp), string(bo)
		if (err != nil) != tc.wantErr || ok != tc.ok || s != tc.s || p != tc.p || o != tc.o {
			t.Fatalf("ParseDataLine(%q) = (%q,%q,%q,%v,%v), want (%q,%q,%q,%v,err=%v)",
				tc.line, s, p, o, ok, err, tc.s, tc.p, tc.o, tc.ok, tc.wantErr)
		}
	}
}

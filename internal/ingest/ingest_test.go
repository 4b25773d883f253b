package ingest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// randDump renders a random N-Triples dump with duplicates, comments,
// blank lines and both IRI spellings, deterministic in seed.
func randDump(seed int64, lines int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < lines; i++ {
		switch rng.Intn(10) {
		case 0:
			b.WriteString("# comment line\n")
		case 1:
			b.WriteString("\n")
		default:
			s := fmt.Sprintf("n%d", rng.Intn(200))
			p := fmt.Sprintf("p%d", rng.Intn(8))
			o := fmt.Sprintf("n%d", rng.Intn(200))
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&b, "<%s> <%s> <%s> .\n", s, p, o)
			} else {
				fmt.Fprintf(&b, "%s %s %s .\n", s, p, o)
			}
		}
	}
	return b.String()
}

func gzipBytes(t *testing.T, src string) []byte {
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

// sameGraph requires full equivalence: identical enumeration streams
// (via each graph's own dictionary) AND identical dictionary ID
// assignment, the stronger contract Load promises.
func sameGraph(t *testing.T, want, got *rdf.Graph, label string) {
	t.Helper()
	if !backendtest.EqualStreams(want, got) {
		t.Fatalf("%s: enumeration streams diverge (want %d triples, got %d)", label, want.Len(), got.Len())
	}
	if want.Dict().NumIRIs() != got.Dict().NumIRIs() {
		t.Fatalf("%s: dictionary sizes diverge: %d vs %d", label, want.Dict().NumIRIs(), got.Dict().NumIRIs())
	}
	for i := 0; i < want.Dict().NumIRIs(); i++ {
		id := rdf.TermID(i)
		if want.Dict().StringOf(id) != got.Dict().StringOf(id) {
			t.Fatalf("%s: ID %d interned as %q sequentially, %q in parallel",
				label, i, want.Dict().StringOf(id), got.Dict().StringOf(id))
		}
	}
}

// TestLoadEquivalence is the pipeline's core contract: across worker
// counts, chunk sizes and gzip, Load is byte-identical
// to the sequential ReadGraph path.
func TestLoadEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		src := randDump(seed, 3000)
		want, err := rdf.ReadGraph(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			for _, chunk := range []int{64, 1024, 1 << 20} {
				label := fmt.Sprintf("seed=%d w=%d c=%d", seed, workers, chunk)
				g, err := Load(strings.NewReader(src), Options{Workers: workers, ChunkBytes: chunk})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if g.HasOverlay() {
					t.Fatalf("%s: result carries an overlay", label)
				}
				sameGraph(t, want, g, label)
			}
		}
		gz, err := Load(bytes.NewReader(gzipBytes(t, src)), Options{Workers: 4, ChunkBytes: 512})
		if err != nil {
			t.Fatalf("gzip seed=%d: %v", seed, err)
		}
		sameGraph(t, want, gz, fmt.Sprintf("gzip seed=%d", seed))
	}
}

// TestLoadFirstErrorWins pins deterministic error reporting: whatever
// the worker interleaving, the error is the first one in input order,
// with the same line number the sequential reader reports.
func TestLoadFirstErrorWins(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "s%d p o%d .\n", i, i)
	}
	b.WriteString("first bad line is wrong\n") // line 501
	for i := 0; i < 500; i++ {
		b.WriteString("also bad\n")
	}
	src := b.String()
	_, wantErr := rdf.ReadGraph(strings.NewReader(src))
	if wantErr == nil || !strings.Contains(wantErr.Error(), "line 501") {
		t.Fatalf("sequential reference error %v does not name line 501", wantErr)
	}
	for trial := 0; trial < 20; trial++ {
		_, err := Load(strings.NewReader(src), Options{Workers: 8, ChunkBytes: 128})
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("trial %d: error %q, want %q", trial, err, wantErr)
		}
	}
}

// TestLoadGzipTruncated pins the corruption contract: a gzip stream
// cut mid-payload must error (the trailer CRC is never seen), and the
// error must not panic or hang the pool.
func TestLoadGzipTruncated(t *testing.T) {
	full := gzipBytes(t, randDump(9, 2000))
	for _, cut := range []int{len(full) - 1, len(full) - 8, len(full) / 2, 3} {
		if _, err := Load(bytes.NewReader(full[:cut]), Options{Workers: 4, ChunkBytes: 256}); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", cut, len(full))
		}
	}
}

// TestLoadMaxLine pins that the chunker enforces the line bound with
// the sequential reader's exact error, including the line number. A
// final line without a newline has no terminator to discount: it
// loads on both paths at exactly the bound and fails on both, with the
// same error, one byte past it.
func TestLoadMaxLine(t *testing.T) {
	src := "a p b .\nc p d .\n" + strings.Repeat("x", 4096) + " p e .\n"
	_, wantErr := rdf.ReadGraphMaxLine(strings.NewReader(src), 1024)
	_, err := Load(strings.NewReader(src), Options{Workers: 3, ChunkBytes: 64, MaxLine: 1024})
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("error %q, want sequential %q", err, wantErr)
	}

	const maxLine = 17
	last := "a p " + strings.Repeat("o", maxLine-4) // maxLine bytes, no newline
	for _, src := range []string{last, "a p b .\n" + last} {
		seq, seqErr := rdf.ReadGraphMaxLine(strings.NewReader(src), maxLine)
		par, parErr := Load(strings.NewReader(src), Options{Workers: 2, ChunkBytes: 4, MaxLine: maxLine})
		if seqErr != nil || parErr != nil {
			t.Fatalf("%q at the bound: sequential err=%v, parallel err=%v", src, seqErr, parErr)
		}
		sameGraph(t, seq, par, fmt.Sprintf("%q", src))
		over := src + "o"
		_, seqErr = rdf.ReadGraphMaxLine(strings.NewReader(over), maxLine)
		_, parErr = Load(strings.NewReader(over), Options{Workers: 2, ChunkBytes: 4, MaxLine: maxLine})
		if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() ||
			!strings.Contains(seqErr.Error(), fmt.Sprintf("line exceeds %d bytes", maxLine)) {
			t.Fatalf("%q one byte past the bound: sequential err=%v, parallel err=%v", over, seqErr, parErr)
		}
	}
}

// TestLoadEmptyAndCommentOnly pins the degenerate inputs.
func TestLoadEmptyAndCommentOnly(t *testing.T) {
	for _, src := range []string{"", "\n\n\n", "# only comments\n# here\n"} {
		g, err := Load(strings.NewReader(src), Options{Workers: 2})
		if err != nil || g.Len() != 0 {
			t.Fatalf("Load(%q): len=%d err=%v", src, g.Len(), err)
		}
	}
}

// TestLoadProgress pins the progress callback: monotone, final report
// covers the whole input and the count of distinct triples appended —
// a repeated line adds none — which is the graph's Len.
func TestLoadProgress(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 40000; i++ {
		fmt.Fprintf(&b, "s%d p o%d .\n", i, i%31)
	}
	for _, tc := range []struct {
		src       string
		wantCalls int
		want      int
	}{
		{b.String(), 2, 40000},
		{strings.Repeat("a p b .\n", 5) + "c p d .\n", 1, 2},
	} {
		var lastBytes int64
		var lastTriples, calls int
		g, err := Load(strings.NewReader(tc.src), Options{Workers: 4, ChunkBytes: 4096, Progress: func(bn int64, n int) {
			calls++
			if bn < lastBytes || n < lastTriples {
				t.Fatalf("progress went backwards: (%d,%d) after (%d,%d)", bn, n, lastBytes, lastTriples)
			}
			lastBytes, lastTriples = bn, n
		}})
		if err != nil {
			t.Fatal(err)
		}
		if calls < tc.wantCalls || lastTriples != g.Len() || g.Len() != tc.want || lastBytes != int64(len(tc.src)) {
			t.Fatalf("calls=%d lastTriples=%d (graph %d, want %d) lastBytes=%d (input %d)",
				calls, lastTriples, g.Len(), tc.want, lastBytes, len(tc.src))
		}
	}
}

// vocabDump renders n data lines over a fixed 64-term vocabulary,
// every fourth line a repeat of the line before it.
func vocabDump(n int) []byte {
	var b bytes.Buffer
	var line string
	x := uint32(1)
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			x = x*1664525 + 1013904223
			line = fmt.Sprintf("t%d t%d <t%d> .\n", x>>26, x>>20&63, x>>14&63)
		}
		b.WriteString(line)
	}
	return b.Bytes()
}

// A parallel load costs its bytes too: a data line allocates nothing
// in the decode workers or the merge, so at 8N lines Load allocates
// only what its growing slices and dedup table cost per doubling.
func TestLoadAllocsFlat(t *testing.T) {
	loadAllocs := func(n int) float64 {
		src := vocabDump(n)
		return testing.AllocsPerRun(3, func() {
			if _, err := Load(bytes.NewReader(src), Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const doublings = 3 // N → 8N lines
	small, large := loadAllocs(1<<12), loadAllocs(1<<15)
	if large-small > 8*doublings {
		t.Fatalf("Load allocates %.0f objects over %d lines, %.0f over %d: more than 8 per doubling",
			small, 1<<12, large, 1<<15)
	}
	t.Logf("%.0f objects over %d lines, %.0f over %d", small, 1<<12, large, 1<<15)
}

// TestChunkerReassembly pins the chunker invariants directly: chunk
// concatenation is the input, every non-final chunk ends at a line
// boundary, indexes are dense, and StartLine matches the running
// newline count.
func TestChunkerReassembly(t *testing.T) {
	src := randDump(31, 4000)
	for _, chunkBytes := range []int{1, 7, 64, 1024, 1 << 20} {
		ck := NewChunker(strings.NewReader(src), chunkBytes, 0)
		var rebuilt []byte
		wantIndex, wantLine := 0, 1
		for {
			ch, err := ck.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunkBytes=%d: %v", chunkBytes, err)
			}
			if ch.Index != wantIndex || ch.StartLine != wantLine {
				t.Fatalf("chunkBytes=%d: chunk stamped (%d,%d), want (%d,%d)",
					chunkBytes, ch.Index, ch.StartLine, wantIndex, wantLine)
			}
			if len(ch.Data) == 0 {
				t.Fatalf("chunkBytes=%d: empty chunk", chunkBytes)
			}
			rebuilt = append(rebuilt, ch.Data...)
			if len(rebuilt) < len(src) && ch.Data[len(ch.Data)-1] != '\n' {
				t.Fatalf("chunkBytes=%d: non-final chunk %d does not end on a line boundary", chunkBytes, ch.Index)
			}
			wantIndex++
			wantLine += bytes.Count(ch.Data, []byte{'\n'})
		}
		if string(rebuilt) != src {
			t.Fatalf("chunkBytes=%d: reassembled %d bytes, input %d", chunkBytes, len(rebuilt), len(src))
		}
	}
}

package ingest

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// FuzzIngestChunker fuzzes the line-boundary splitter and, through it,
// the whole pipeline's equivalence with the sequential reader: for
// arbitrary bytes and adversarial chunk/line bounds, the chunker must
// reassemble the input exactly, split only at line boundaries, and
// Load must agree with ReadGraphMaxLine — same accept/reject decision,
// and identical graphs on accept. "Errors, never panics" is implicit:
// any panic or hang fails the fuzz run.
func FuzzIngestChunker(f *testing.F) {
	f.Add([]byte("a p b .\nb p c .\n"), uint16(8), uint16(64))
	f.Add([]byte("a p b .\n# c\n\nno dot here\n"), uint16(1), uint16(16))
	f.Add([]byte("x\xffy p z .\r\n<a> <b> <c> ."), uint16(3), uint16(8))
	f.Add([]byte(strings.Repeat("n1 p n2 .\n", 40)), uint16(16), uint16(1024))
	f.Add([]byte("\n\n\n"), uint16(2), uint16(4))
	// A final line of maxLine+1 bytes with no newline: the sequential
	// reader once discounted a terminator the line does not have.
	f.Add([]byte("00 000 00000000000"), uint16(8), uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, chunkRaw, maxRaw uint16) {
		chunkBytes := int(chunkRaw)%512 + 1
		maxLine := int(maxRaw)%256 + 1

		// Chunker invariants on raw bytes.
		ck := NewChunker(bytes.NewReader(data), chunkBytes, maxLine)
		var rebuilt []byte
		chunkOK := true
		wantLine := 1
		for {
			ch, err := ck.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				chunkOK = false
				break
			}
			if ch.StartLine != wantLine {
				t.Fatalf("chunk start line %d, want %d", ch.StartLine, wantLine)
			}
			if len(ch.Data) == 0 {
				t.Fatal("empty chunk")
			}
			rebuilt = append(rebuilt, ch.Data...)
			wantLine += bytes.Count(ch.Data, []byte{'\n'})
		}
		if chunkOK {
			if !bytes.Equal(rebuilt, data) {
				t.Fatalf("chunker reassembled %d bytes from %d", len(rebuilt), len(data))
			}
		}

		// Pipeline vs sequential reader: same verdict, same graph.
		seq, seqErr := rdf.ReadGraphMaxLine(bytes.NewReader(data), maxLine)
		par, parErr := Load(bytes.NewReader(data), Options{Workers: 3, ChunkBytes: chunkBytes, MaxLine: maxLine})
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("verdicts diverge: sequential err=%v, parallel err=%v", seqErr, parErr)
		}
		if seqErr == nil {
			if !backendtest.EqualStreams(seq, par) {
				t.Fatalf("graphs diverge: sequential %d triples, parallel %d", seq.Len(), par.Len())
			}
		}
	})
}

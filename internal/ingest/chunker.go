// Package ingest is the parallel streaming ingest pipeline: it loads
// the N-Triples format of rdf.ReadGraph through a chunked reader and a
// decode worker pool, and compacts the result directly into the frozen
// CSR backend through an rdf.GraphBuilder.
//
// The pipeline has three stages:
//
//  1. Chunking (sequential): the input — gzip-decompressed first if
//     the magic bytes match, since DEFLATE decompression is inherently
//     serial — is split into chunks that end on line boundaries, each
//     stamped with its index and the 1-based line number of its first
//     line.
//  2. Decode (parallel): a worker pool parses chunks independently.
//     Each worker interns IRIs into its own private dictionary, so the
//     hot interning path never takes a lock; a triple leaves the
//     worker encoded in worker-local IDs.
//  3. Merge/remap (sequential): the collector consumes decoded chunks
//     strictly in input order and rewrites worker-local IDs to global
//     ones through per-worker remap tables. A global ID is interned
//     lazily, on the first input-order use of the term — which makes
//     the global dictionary byte-identical (same strings, same IDs,
//     same order) to the one the sequential ReadGraph path would have
//     built. The remapped encoded triples are added to a
//     GraphBuilder over that dictionary, which dedups them exactly as
//     the sequential path does.
//
// Because stage 3 reproduces the sequential dictionary and triple
// order exactly, the pipeline's output graph is indistinguishable from
// rdf.ReadGraph's: same insertion order, same IDs, same enumeration
// streams. TestLoadEquivalence pins that equivalence.
package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"wdsparql/internal/rdf"
)

// DefaultChunkBytes is the target chunk size: big enough that chunk
// hand-off overhead vanishes against parse cost, small enough that a
// worker pool sees work even on modest inputs.
const DefaultChunkBytes = 1 << 20

// Chunk is a run of whole input lines: Data always ends at a line
// boundary ('\n'-terminated, except possibly the final chunk of the
// input). StartLine is the 1-based line number of the first line, so
// workers can report absolute line numbers for parse errors; Lines is
// the number of '\n' in Data.
type Chunk struct {
	Index     int
	StartLine int
	Lines     int
	Data      []byte
}

// Chunker splits a byte stream into line-boundary chunks. It enforces
// the same per-line length bound as rdf.ReadGraphMaxLine, with the
// same error shape, so an overlong line fails identically on the
// sequential and parallel paths.
type Chunker struct {
	br         *bufio.Reader
	chunkBytes int
	maxLine    int
	index      int
	line       int // 1-based line number of the next chunk's first line
	curLine    int // bytes accumulated of the current (unterminated) line
	done       bool

	// free holds chunk buffers handed back by release for Next to
	// refill; nil (a Chunker of NewChunker) means every chunk gets a
	// fresh buffer.
	free chan []byte
}

// NewChunker wraps r (NOT gzip-sniffed: callers decompress first, see
// openReader). chunkBytes ≤ 0 means DefaultChunkBytes, maxLine ≤ 0
// means rdf.MaxLineLen.
func NewChunker(r io.Reader, chunkBytes, maxLine int) *Chunker {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if maxLine <= 0 {
		maxLine = rdf.MaxLineLen
	}
	return &Chunker{
		br:         bufio.NewReaderSize(r, 64*1024),
		chunkBytes: chunkBytes,
		maxLine:    maxLine,
		line:       1,
	}
}

// Next returns the next chunk. After the final chunk it returns a
// zero Chunk and io.EOF. Any other error aborts the chunking (read
// errors, or a line beyond the bound — reported with its absolute
// line number, like ReadGraph).
func (c *Chunker) Next() (Chunk, error) {
	if c.done {
		return Chunk{}, io.EOF
	}
	var data []byte
	select {
	case data = <-c.free:
	default:
		data = make([]byte, 0, c.chunkBytes+4096)
	}
	for {
		frag, err := c.br.ReadSlice('\n')
		data = append(data, frag...)
		terminated := len(frag) > 0 && frag[len(frag)-1] == '\n'
		c.curLine += len(frag)
		if terminated {
			// The terminator itself is not counted against the bound,
			// matching readLine in the sequential reader.
			if c.curLine-1 > c.maxLine {
				c.done = true
				return Chunk{}, fmt.Errorf("rdf: line %d: line exceeds %d bytes",
					c.lineOf(data, len(data)-1), c.maxLine)
			}
			c.curLine = 0
		} else if c.curLine > c.maxLine {
			c.done = true
			return Chunk{}, fmt.Errorf("rdf: line %d: line exceeds %d bytes",
				c.lineOf(data, len(data)), c.maxLine)
		}
		switch err {
		case nil, bufio.ErrBufferFull:
			if terminated && len(data) >= c.chunkBytes {
				return c.emit(data), nil
			}
		case io.EOF:
			c.done = true
			if len(data) == 0 {
				return Chunk{}, io.EOF
			}
			return c.emit(data), nil
		default:
			c.done = true
			return Chunk{}, fmt.Errorf("rdf: read: %w", err)
		}
	}
}

// release hands a chunk's buffer back for a later Next to refill. The
// caller must not read the chunk's Data afterwards. It never
// blocks: with the free list full, the buffer is left to the GC.
func (c *Chunker) release(ch Chunk) {
	select {
	case c.free <- ch.Data[:0]:
	default:
	}
}

// emit stamps the accumulated data as a chunk and advances the line
// cursor past it.
func (c *Chunker) emit(data []byte) Chunk {
	ch := Chunk{Index: c.index, StartLine: c.line, Lines: bytes.Count(data, []byte{'\n'}), Data: data}
	c.index++
	c.line += ch.Lines
	return ch
}

// lineOf maps a byte offset in the pending chunk data to an absolute
// 1-based line number, for error reporting.
func (c *Chunker) lineOf(data []byte, off int) int {
	return c.line + bytes.Count(data[:off], []byte{'\n'})
}

// openReader prepares the input like rdf.ReadGraph: the two gzip magic
// bytes select transparent decompression (a short Peek means the input
// is shorter than a gzip header and cannot be gzip). close is non-nil
// when a decompressor was layered in.
func openReader(r io.Reader) (io.Reader, io.Closer, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("rdf: gzip input: %w", err)
		}
		return zr, zr, nil
	}
	return br, nil, nil
}

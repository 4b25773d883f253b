package rdf

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file implements a small line-oriented serialisation for ground
// RDF graphs, a pragmatic subset of N-Triples: one triple per line,
// three whitespace-separated terms, an optional trailing ".", "#"
// comments, and optional angle brackets around IRIs. Variables are not
// permitted in data files (graphs are ground).

// MaxLineLen is the default bound on a single input line of ReadGraph.
// It exists so a malformed (or hostile) input cannot make the reader
// buffer an unbounded line; lines beyond the bound fail with an error
// naming the offending line. ReadGraphMaxLine configures it per call.
const MaxLineLen = 16 << 20 // 16 MiB

// ReadGraph parses a graph from r. Gzipped input is detected by its
// magic bytes and decompressed transparently, so `wdserve -data g.nt.gz`
// and a plain file behave identically. It returns the first syntax
// error encountered, annotated with a line number — including lines
// longer than MaxLineLen. Line numbers always count decompressed
// lines, so an error in a gzipped dump points at the same line as in
// the plain dump. The graph is bulk-loaded through a GraphBuilder and
// returned frozen (see Graph.Freeze): cold load is one interning pass
// plus one compaction, and the result is immediately ready for
// concurrent readers. Adding to it fills an overlay and leaves the
// sealed base untouched.
func ReadGraph(r io.Reader) (*Graph, error) {
	return readGraph(r, MaxLineLen, nil)
}

// ReadGraphMaxLine is ReadGraph with an explicit bound on the length
// of a single input line (maxLine ≤ 0 means MaxLineLen). The bound is
// a robustness guard, not a format limit: any line up to the bound is
// parsed whole, however large.
func ReadGraphMaxLine(r io.Reader, maxLine int) (*Graph, error) {
	return readGraph(r, maxLine, nil)
}

// ProgressFunc receives load progress: bytes is the cumulative count
// of raw input bytes consumed from the underlying reader (compressed
// bytes for gzipped input, and slightly ahead of parsing due to
// buffering), triples the cumulative count of distinct triples
// appended to the graph so far (a repeated line adds none). Callbacks
// arrive about every progressStride triples and once at the end of
// input, whose count is the loaded graph's Len; wdserve and the cmd
// tools use them to report long loads without instrumenting the parse
// loop themselves.
type ProgressFunc func(bytes int64, triples int)

// progressStride is how many appended triples pass between two
// progress callbacks: frequent enough for responsive reporting, rare
// enough that the callback never shows up in a load profile.
const progressStride = 1 << 14

// ReadGraphWithProgress is ReadGraph with a progress callback
// (progress may be nil).
func ReadGraphWithProgress(r io.Reader, progress ProgressFunc) (*Graph, error) {
	return readGraph(r, MaxLineLen, progress)
}

// countingReader counts raw bytes consumed from the wrapped reader; it
// sits below the gzip layer so progress reflects input consumed, which
// is what an operator watching a bounded upload wants to see.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func readGraph(r io.Reader, maxLine int, progress ProgressFunc) (*Graph, error) {
	b := NewGraphBuilder(0)
	cr := &countingReader{r: r}
	err := decodeLines(cr, maxLine, func(s, p, o []byte) error {
		d := b.dict
		t := IDTriple{d.internIRIBytes(s), d.internIRIBytes(p), d.internIRIBytes(o)}
		if b.AddID(t) && progress != nil && b.Len()%progressStride == 0 {
			progress(cr.n, b.Len())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(cr.n, b.Len())
	}
	return b.Graph(), nil
}

// DecodeTriples streams the ReadGraph format: it parses r (gzip
// auto-detected) line by line and calls fn once per data triple, in
// input order, with the bare IRI values of the three positions. A
// non-nil error from fn aborts the decode and is returned unwrapped.
// maxLine ≤ 0 means MaxLineLen.
func DecodeTriples(r io.Reader, maxLine int, fn func(s, p, o string) error) error {
	return decodeLines(r, maxLine, func(s, p, o []byte) error {
		// One copy per line: s, p and o are slices of one line, in that
		// order, so the span from s to the end of o is copied once and
		// the three terms are substrings of it.
		po, oo := cap(s)-cap(p), cap(s)-cap(o)
		span := string(s[:oo+len(o)])
		return fn(span[:len(s)], span[po:po+len(p)], span[oo:])
	})
}

// decodeLines is the single decode loop behind ReadGraph and
// DecodeTriples. fn receives the three terms as slices of the current
// line, valid only until it returns.
func decodeLines(r io.Reader, maxLine int, fn func(s, p, o []byte) error) error {
	if maxLine <= 0 {
		maxLine = MaxLineLen
	}
	br := bufio.NewReaderSize(r, 64*1024)
	// Gzip auto-detection: sniff the two magic bytes without consuming
	// them (a short Peek just means the input is shorter than a gzip
	// header, so it cannot be gzip). Corrupt gzip streams surface as
	// read errors below, never as silent truncation — the gzip reader
	// checks the trailing CRC before reporting EOF. Line numbers are
	// counted on the decompressed stream, below this branch, so they
	// are identical for a dump and its gzipped form.
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("rdf: gzip input: %w", err)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 64*1024)
	}
	lr := lineReader{br: br, max: maxLine}
	for lineNo := 1; ; lineNo++ {
		line, err := lr.next()
		if err == errLineTooLong {
			return fmt.Errorf("rdf: line %d: line exceeds %d bytes", lineNo, maxLine)
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("rdf: read: %w", err)
		}
		if len(line) == 0 && err == io.EOF {
			return nil
		}
		s, p, o, ok, perr := ParseDataLine(line)
		if perr != nil {
			return fmt.Errorf("rdf: line %d: %w", lineNo, perr)
		}
		if ok {
			if ferr := fn(s, p, o); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// ParseDataLine parses one line of the ReadGraph format, in place,
// into the bare IRI values of a triple: s, p and o are slices of line,
// and a well-formed line allocates nothing. ok is false for blank
// lines and comments. White space is Unicode white space, exactly as
// strings.TrimSpace and strings.Fields define it; one trailing "." is
// dropped and "<…>" is stripped. Every loader — ReadGraph,
// DecodeTriples and the ingest pipeline's chunk workers — runs this
// one parser, so all of them accept and reject the same lines.
func ParseDataLine(line []byte) (s, p, o []byte, ok bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return nil, nil, nil, false, nil
	}
	if line[len(line)-1] == '.' {
		line = line[:len(line)-1]
	}
	var f [3][]byte
	n := 0
	for field, rest := nextField(line); field != nil; field, rest = nextField(rest) {
		if n < len(f) {
			f[n] = field
		}
		n++
	}
	if n != len(f) {
		return nil, nil, nil, false, fmt.Errorf("expected 3 terms, got %d", n)
	}
	for i := range f {
		if f[i], err = dataTerm(f[i]); err != nil {
			return nil, nil, nil, false, err
		}
	}
	return f[0], f[1], f[2], true, nil
}

// asciiSpace has bit c set for each ASCII byte c that unicode.IsSpace
// accepts.
const asciiSpace = 1<<'\t' | 1<<'\n' | 1<<'\v' | 1<<'\f' | 1<<'\r' | 1<<' '

// nextField returns the first white-space-delimited field of b and
// what follows it, or a nil field when b holds none: the fields of
// strings.Fields, where an invalid UTF-8 byte is one non-space rune.
func nextField(b []byte) (field, rest []byte) {
	start := -1
	for i := 0; i < len(b); {
		w, sp := 1, uint64(asciiSpace)>>b[i]&1 == 1
		if b[i] >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(b[i:])
			sp = unicode.IsSpace(r)
		}
		switch {
		case start < 0 && !sp:
			start = i
		case start >= 0 && sp:
			return b[start:i], b[i:]
		}
		i += w
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}

// dataTerm checks one field of a data line and strips the angle
// brackets of an IRI.
func dataTerm(f []byte) ([]byte, error) {
	switch f[0] {
	case '?':
		return nil, fmt.Errorf("variable %q not allowed in data", f)
	case '<':
		if f[len(f)-1] != '>' {
			return nil, fmt.Errorf("unterminated IRI %q", f)
		}
		f = f[1 : len(f)-1]
	}
	if len(f) == 0 {
		return nil, fmt.Errorf("empty term")
	}
	return f, nil
}

// errLineTooLong is lineReader's sentinel for a line beyond the bound;
// decodeLines converts it into an error carrying the line number.
var errLineTooLong = fmt.Errorf("line too long")

// lineReader reads \n-terminated lines of at most max bytes, the
// terminator stripped and, when there is one, not counted. A line is a
// slice of br's buffer, or of buf when it spans refills, valid until
// the next call.
type lineReader struct {
	br  *bufio.Reader
	buf []byte
	max int
}

// next returns the next line. It returns io.EOF together with the
// final unterminated line, if any, and errLineTooLong as soon as the
// line is known to exceed the bound — without buffering the rest of
// it.
func (lr *lineReader) next() ([]byte, error) {
	lr.buf = lr.buf[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		n := len(lr.buf) + len(frag)
		if err == nil {
			n-- // the \n itself is not counted
		}
		if n > lr.max {
			return nil, errLineTooLong
		}
		if err == bufio.ErrBufferFull {
			lr.buf = append(lr.buf, frag...)
			continue
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if len(lr.buf) > 0 {
			lr.buf = append(lr.buf, frag...)
			frag = lr.buf
		}
		if err == nil {
			frag = frag[:len(frag)-1]
		}
		return frag, err
	}
}

// ParseGraph parses a graph from a string.
func ParseGraph(s string) (*Graph, error) {
	return ReadGraph(strings.NewReader(s))
}

// MustParseGraph is ParseGraph that panics on error; for tests and
// examples with literal data.
func MustParseGraph(s string) *Graph {
	g, err := ParseGraph(s)
	if err != nil {
		panic(err)
	}
	return g
}

// WriteGraph writes g to w, one triple per line with a trailing ".",
// in deterministic order.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", t.S.Value, t.P.Value, t.O.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatGraph renders g as a string in the WriteGraph format.
func FormatGraph(g *Graph) string {
	var b strings.Builder
	_ = WriteGraph(&b, g)
	return b.String()
}

package server

import (
	"bufio"
	"encoding/json"
	"strconv"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// Result encoders: each serialises one solution stream incrementally —
// a prologue carrying the variable names, one fragment per row straight
// off the zero-decode Rows iterator, and an epilogue that closes the
// document so that even a truncated stream (deadline, client gone,
// drain) is syntactically valid output. Encoders write into the
// handler's bufio.Writer, one Write per fragment; the handler owns
// flushing (and the write deadlines armed around it).

// resultEncoder is one streamed serialisation of a solution stream.
type resultEncoder interface {
	contentType() string
	// begin writes the prologue (the head/vars of the result set). The
	// handler flushes right after it, putting the first response bytes
	// on the wire before the enumeration has produced a single row.
	begin() error
	// row appends one solution. The row aliases the enumeration's
	// working row and is only valid during the call.
	row(r wdsparql.Row) error
	// end closes the document. truncated marks a stream stopped by a
	// deadline or cancellation rather than exhaustion; encoders that
	// can carry the flag in-band do so.
	end(truncated bool) error
}

const (
	formatJSON = "json"
	formatTSV  = "tsv"

	contentTypeJSON = "application/sparql-results+json"
	contentTypeTSV  = "text/tab-separated-values; charset=utf-8"
)

func newEncoder(format string, w *bufio.Writer, layout *wdsparql.SlotLayout, dict *rdf.Dict) resultEncoder {
	if format == formatTSV {
		return &tsvEncoder{out: fragmentWriter{w: w}, layout: layout, dict: dict}
	}
	return &jsonEncoder{out: fragmentWriter{w: w}, layout: layout, dict: dict}
}

// fragmentWriter hands a bufio.Writer whole fragments. A fragment is
// appended into the writer's free space, so the one Write that hands it
// over copies nothing. A fragment that outgrows the free space moves to
// the heap, and that slice is kept as scratch for later fragments while
// the free space is smaller: a warmed encoder allocates nothing,
// wherever its rows fall against the end of the buffer.
type fragmentWriter struct {
	w       *bufio.Writer
	scratch []byte
}

// buf returns an empty slice to append one fragment to.
func (f *fragmentWriter) buf() []byte {
	if b := f.w.AvailableBuffer(); cap(b) >= cap(f.scratch) {
		return b
	}
	return f.scratch[:0]
}

// write hands over a fragment appended to buf().
func (f *fragmentWriter) write(b []byte) error {
	if cap(b) > cap(f.scratch) && cap(b) > f.w.Available() {
		f.scratch = b[:0] // a fresh heap slice: keep it
	}
	_, err := f.w.Write(b)
	return err
}

// jsonEncoder streams the SPARQL 1.1 Query Results JSON format:
//
//	{"head":{"vars":[…]},"results":{"bindings":[…]},"truncated":true?}
//
// The non-standard top-level "truncated" member appears only on
// streams cut short; the document is always complete, valid JSON.
type jsonEncoder struct {
	out    fragmentWriter
	layout *wdsparql.SlotLayout
	dict   *rdf.Dict
	prefix [][]byte // per slot: `"name":{"type":"uri","value":`, built by begin
	n      int
}

func (e *jsonEncoder) contentType() string { return contentTypeJSON }

func (e *jsonEncoder) begin() error {
	b := append(e.out.buf(), `{"head":{"vars":[`...)
	e.prefix = make([][]byte, e.layout.Width())
	for s := range e.prefix {
		if s > 0 {
			b = append(b, ',')
		}
		name := appendJSONString(nil, e.layout.Name(s))
		b = append(b, name...)
		e.prefix[s] = append(name, `:{"type":"uri","value":`...)
	}
	return e.out.write(append(b, `]},"results":{"bindings":[`...))
}

func (e *jsonEncoder) row(r wdsparql.Row) error {
	b := e.out.buf()
	if e.n > 0 {
		b = append(b, ',')
	}
	e.n++
	b = append(b, '{')
	first := true
	for s, v := range r {
		if v == wdsparql.Unbound {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, e.prefix[s]...)
		b = appendJSONString(b, e.dict.StringOf(v))
		b = append(b, '}')
	}
	return e.out.write(append(b, '}'))
}

func (e *jsonEncoder) end(truncated bool) error {
	b := append(e.out.buf(), `]}`...)
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	return e.out.write(append(b, "}\n"...))
}

// tsvEncoder streams the SPARQL 1.1 TSV results format: a header line
// of ?-prefixed variable names, then one line per solution with IRIs
// in angle brackets and unbound positions empty.
type tsvEncoder struct {
	out    fragmentWriter
	layout *wdsparql.SlotLayout
	dict   *rdf.Dict
}

func (e *tsvEncoder) contentType() string { return contentTypeTSV }

func (e *tsvEncoder) begin() error {
	b := e.out.buf()
	for s := 0; s < e.layout.Width(); s++ {
		if s > 0 {
			b = append(b, '\t')
		}
		b = append(b, '?')
		b = append(b, e.layout.Name(s)...)
	}
	return e.out.write(append(b, '\n'))
}

func (e *tsvEncoder) row(r wdsparql.Row) error {
	b := e.out.buf()
	for s, v := range r {
		if s > 0 {
			b = append(b, '\t')
		}
		if v != wdsparql.Unbound {
			b = append(b, '<')
			b = appendTSVValue(b, e.dict.StringOf(v))
			b = append(b, '>')
		}
	}
	return e.out.write(append(b, '\n'))
}

func (e *tsvEncoder) end(bool) error {
	// TSV carries no in-band structure to close: a truncated stream is
	// simply a shorter, still-valid document.
	return nil
}

// tsvEscape maps each byte the SPARQL 1.1 TSV format escapes to its
// escape letter; 0 copies the byte as is. A raw tab or newline inside a
// value would split the field or the row, so \t, \n, \r and \ itself
// are backslash-escaped.
var tsvEscape = [256]byte{'\t': 't', '\n': 'n', '\r': 'r', '\\': '\\'}

// appendTSVValue appends an IRI as a TSV field value.
func appendTSVValue(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if esc := tsvEscape[s[i]]; esc != 0 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', esc)
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// jsonPlain marks the bytes a JSON string literal carries as they are:
// printable ASCII other than '"' and '\'.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendJSONString appends s as a JSON string literal. Plain ASCII —
// the shape of virtually every IRI and variable name — is copied as is;
// a string holding any other byte takes encoding/json's escaping whole.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonErrorBody renders a one-field JSON error document.
func jsonErrorBody(msg string) []byte {
	b, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		return []byte(`{"error":` + strconv.Quote("encoding failure") + `}`)
	}
	return append(b, '\n')
}

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
// handler's 64 KiB bufio.Writer, one Write per fragment; the handler
// decides when the buffer goes to the connection (and arms the write
// deadline before each write).

// resultEncoder is one streamed serialisation of a solution stream.
type resultEncoder interface {
	contentType() string
	// begin writes the prologue (the head/vars of the result set) into
	// the buffer. Nothing is sent yet: the handler sends it with the
	// first rows, with the whole document when the answer fits the
	// buffer, or on its own once the first-row grace expires, so a slow
	// query's prologue still reaches the client before its first row
	// exists.
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

// newEncoder returns the format's encoder over dict. plain holds the
// escape bits of dict's IRIs (see plainBits); IDs past its end, or all
// of them when it is nil, are scanned for escapes row by row.
func newEncoder(format string, w *bufio.Writer, layout *wdsparql.SlotLayout, dict *rdf.Dict, plain []byte) resultEncoder {
	if format == formatTSV {
		return &tsvEncoder{out: fragmentWriter{w: w}, layout: layout, dict: dict, plain: plain}
	}
	return &jsonEncoder{out: fragmentWriter{w: w}, layout: layout, dict: dict, plain: plain}
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
	plain  []byte
	prefix [][]byte // per slot: `"name":{"type":"uri","value":"`, built by begin
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
		e.prefix[s] = append(name, `:{"type":"uri","value":"`...)
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
		// The prefix ends in the value's opening quote: a flagged IRI
		// is copied whole after it, any other one is re-quoted by
		// appendJSONString in its place.
		b = append(b, e.prefix[s]...)
		if iri := e.dict.StringOf(v); int(v) < len(e.plain) && e.plain[v]&plainJSON != 0 {
			b = append(b, iri...)
			b = append(b, '"', '}')
		} else {
			b = appendJSONString(b[:len(b)-1], iri)
			b = append(b, '}')
		}
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
	plain  []byte
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
			if iri := e.dict.StringOf(v); int(v) < len(e.plain) && e.plain[v]&plainTSV != 0 {
				b = append(b, iri...)
			} else {
				b = appendTSVValue(b, iri)
			}
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

// Escape bits: one byte per IRI ID, saying which formats carry the IRI
// as it is. They are derived from exactly the tables above, so a
// flagged IRI copied whole is the bytes the scanning path writes.
const (
	plainTSV  byte = 1 << iota // no byte of the IRI has a tsvEscape entry
	plainJSON                  // every byte of the IRI is jsonPlain
)

// byteBits maps a byte to the escape bits an IRI keeps after holding it.
var byteBits = func() (t [256]byte) {
	for c := range t {
		if tsvEscape[c] == 0 {
			t[c] |= plainTSV
		}
		if jsonPlain[c] {
			t[c] |= plainJSON
		}
	}
	return t
}()

// plainBits returns the escape bits of one IRI.
func plainBits(s string) byte {
	bits := plainTSV | plainJSON
	for i := 0; i < len(s) && bits != 0; i++ {
		bits &= byteBits[s[i]]
	}
	return bits
}

// extendPlain returns the escape bits of every IRI in d: base's bits
// for the IDs it covers, which must be an earlier state of the same
// append-only ID space, and a scan of each IRI past its end. base is
// never written.
func extendPlain(base []byte, d *rdf.Dict) []byte {
	n := d.NumIRIs()
	out := make([]byte, n)
	from := copy(out, base)
	for id := from; id < n; id++ {
		out[id] = plainBits(d.StringOf(rdf.TermID(id)))
	}
	return out
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

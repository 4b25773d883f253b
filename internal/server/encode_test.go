package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// encodeVars are the slot names of every encoder test document.
var encodeVars = []string{"s", "mid", "o"}

// longIRI is longer than the handler's 64 KiB write buffer.
var longIRI = "http://ex.org/" + strings.Repeat("z", 70000)

// encodeCases is the golden table: one row's slot values ("" marks an
// unbound slot) and the fragment each encoder writes for it (the JSON
// fragment without the separating comma). The expected bytes are what
// the per-call encoders wrote before rows were append-encoded: values
// that need escaping keep those rules byte for byte, including
// encoding/json's HTML escaping of <, > and & inside a value that
// needs escaping for another reason.
var encodeCases = []struct {
	vals      [3]string
	json, tsv string
}{
	{
		vals: [3]string{"http://ex.org/a", "http://ex.org/b", "http://ex.org/c"},
		json: `{"s":{"type":"uri","value":"http://ex.org/a"},"mid":{"type":"uri","value":"http://ex.org/b"},"o":{"type":"uri","value":"http://ex.org/c"}}`,
		tsv:  "<http://ex.org/a>\t<http://ex.org/b>\t<http://ex.org/c>\n",
	},
	{
		vals: [3]string{"x", "", "y"},
		json: `{"s":{"type":"uri","value":"x"},"o":{"type":"uri","value":"y"}}`,
		tsv:  "<x>\t\t<y>\n",
	},
	{
		vals: [3]string{"p", "q", ""},
		json: `{"s":{"type":"uri","value":"p"},"mid":{"type":"uri","value":"q"}}`,
		tsv:  "<p>\t<q>\t\n",
	},
	{
		vals: [3]string{"tab\there", "lf\nhere", "cr\rhere"},
		json: `{"s":{"type":"uri","value":"tab\there"},"mid":{"type":"uri","value":"lf\nhere"},"o":{"type":"uri","value":"cr\rhere"}}`,
		tsv:  "<tab\\there>\t<lf\\nhere>\t<cr\\rhere>\n",
	},
	{
		vals: [3]string{`back\slash`, `quo"te`, "ctl\x01byte"},
		json: `{"s":{"type":"uri","value":"back\\slash"},"mid":{"type":"uri","value":"quo\"te"},"o":{"type":"uri","value":"ctl\u0001byte"}}`,
		tsv:  "<back\\\\slash>\t<quo\"te>\t<ctl\x01byte>\n",
	},
	{
		vals: [3]string{"caf\u00e9", "bad\xffutf8", "line\u2028sep"},
		json: "{\"s\":{\"type\":\"uri\",\"value\":\"caf\u00e9\"},\"mid\":{\"type\":\"uri\",\"value\":\"bad\\ufffdutf8\"},\"o\":{\"type\":\"uri\",\"value\":\"line\\u2028sep\"}}",
		tsv:  "<caf\u00e9>\t<bad\xffutf8>\t<line\u2028sep>\n",
	},
	{
		vals: [3]string{"a<b>&c", "<\u00e9>", ""},
		json: "{\"s\":{\"type\":\"uri\",\"value\":\"a<b>&c\"},\"mid\":{\"type\":\"uri\",\"value\":\"\\u003c\u00e9\\u003e\"}}",
		tsv:  "<a<b>&c>\t<<\u00e9>>\t\n",
	},
	{
		vals: [3]string{longIRI, "", ""},
		json: `{"s":{"type":"uri","value":"` + longIRI + `"}}`,
		tsv:  "<" + longIRI + ">\t\t\n",
	},
}

// encodeDoc streams reps copies of the golden rows through the format's
// encoder into a buffer of the handler's size and returns the document.
// With plain, the encoder copies flagged IRIs whole: the dictionary is
// filled first and its escape bits built over all of it, as a request
// finds them. Without, every IRI takes the scanning path.
func encodeDoc(t *testing.T, format string, reps int, truncated, plain bool) []byte {
	t.Helper()
	layout := rdf.NewSlotLayout()
	for _, v := range encodeVars {
		layout.Intern(v)
	}
	dict := rdf.NewDict()
	rows := make([]wdsparql.Row, len(encodeCases))
	for i, c := range encodeCases {
		rows[i] = layout.NewRow()
		for s, v := range c.vals {
			rows[i][s] = wdsparql.Unbound
			if v != "" {
				rows[i][s] = dict.InternIRI(v)
			}
		}
	}
	var bits []byte
	if plain {
		bits = extendPlain(nil, dict)
	}
	var out bytes.Buffer
	w := bufio.NewWriterSize(&out, respBufSize)
	enc := newEncoder(format, w, layout, dict, bits)
	if err := enc.begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := 0; i < reps; i++ {
		for _, row := range rows {
			if err := enc.row(row); err != nil {
				t.Fatalf("row: %v", err)
			}
		}
	}
	if err := enc.end(truncated); err != nil {
		t.Fatalf("end: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return out.Bytes()
}

// TestEncodeGolden pins both encoders byte for byte on hostile IRIs,
// unbound middle and last slots, an IRI longer than the write buffer
// and both end markers, repeated so that rows straddle buffer flushes,
// on the escape-bit path and on the scanning path alike.
func TestEncodeGolden(t *testing.T) {
	const reps = 40
	for _, c := range []struct{ truncated, plain bool }{{false, true}, {true, true}, {false, false}, {true, false}} {
		truncated := c.truncated
		var js, ts []string
		for i := 0; i < reps; i++ {
			for _, c := range encodeCases {
				js = append(js, c.json)
				ts = append(ts, c.tsv)
			}
		}
		wantJSON := `{"head":{"vars":["s","mid","o"]},"results":{"bindings":[` + strings.Join(js, ",") + `]}`
		if truncated {
			wantJSON += `,"truncated":true`
		}
		wantJSON += "}\n"
		wantTSV := "?s\t?mid\t?o\n" + strings.Join(ts, "")

		if got := encodeDoc(t, formatJSON, reps, truncated, c.plain); string(got) != wantJSON {
			t.Errorf("json (truncated=%v, plain=%v) differs at byte %d", truncated, c.plain, firstDiff(got, wantJSON))
		}
		if got := encodeDoc(t, formatTSV, reps, truncated, c.plain); string(got) != wantTSV {
			t.Errorf("tsv (truncated=%v, plain=%v) differs at byte %d", truncated, c.plain, firstDiff(got, wantTSV))
		}
	}
}

// firstDiff returns the offset of the first byte where got and want
// differ (the shorter length when one is a prefix of the other).
func firstDiff(got []byte, want string) int {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return i
		}
	}
	return min(len(got), len(want))
}

// TestEncodeJSONRoundTrip decodes the JSON document back: every bound
// slot carries its IRI (invalid UTF-8 as U+FFFD, as encoding/json
// writes it), unbound slots are absent, and the truncation marker
// follows end's flag.
func TestEncodeJSONRoundTrip(t *testing.T) {
	for _, truncated := range []bool{false, true} {
		var doc sparqlJSON
		if err := json.Unmarshal(encodeDoc(t, formatJSON, 1, truncated, true), &doc); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if doc.Truncated != truncated {
			t.Fatalf("truncated = %v, want %v", doc.Truncated, truncated)
		}
		if strings.Join(doc.Head.Vars, ",") != strings.Join(encodeVars, ",") {
			t.Fatalf("vars = %v", doc.Head.Vars)
		}
		if len(doc.Results.Bindings) != len(encodeCases) {
			t.Fatalf("bindings = %d, want %d", len(doc.Results.Bindings), len(encodeCases))
		}
		for i, c := range encodeCases {
			b := doc.Results.Bindings[i]
			bound := 0
			for s, v := range c.vals {
				got, ok := b[encodeVars[s]]
				if v == "" {
					if ok {
						t.Fatalf("row %d: unbound %s present", i, encodeVars[s])
					}
					continue
				}
				bound++
				if want := strings.ToValidUTF8(v, "\ufffd"); !ok || got.Type != "uri" || got.Value != want {
					t.Fatalf("row %d slot %s = %+v, want uri %q", i, encodeVars[s], got, want)
				}
			}
			if len(b) != bound {
				t.Fatalf("row %d: %d bindings, want %d", i, len(b), bound)
			}
		}
	}
}

// asciiRow returns an encoder of the format writing to io.Discard
// through a buffer of the handler's size, prologue written, and a row
// of three ASCII IRIs, flagged in the encoder's escape bits.
func asciiRow(format string) (resultEncoder, wdsparql.Row) {
	layout := rdf.NewSlotLayout()
	for _, v := range encodeVars {
		layout.Intern(v)
	}
	dict := rdf.NewDict()
	row := layout.NewRow()
	for s, v := range []string{"http://example.org/person/12345", "http://example.org/knows", "http://example.org/person/67890"} {
		row[s] = dict.InternIRI(v)
	}
	enc := newEncoder(format, bufio.NewWriterSize(io.Discard, respBufSize), layout, dict, extendPlain(nil, dict))
	_ = enc.begin()
	return enc, row
}

// TestEncodeRowAllocs is the encoders' allocation gate: once warmed, a
// row of ASCII IRIs allocates nothing in either format, wherever it
// falls against the write buffer's boundary. Each measured run encodes
// ten thousand rows, so they wrap the 64 KiB buffer a dozen times: an
// allocation at the wrap cannot hide in AllocsPerRun's rounding.
func TestEncodeRowAllocs(t *testing.T) {
	for _, format := range []string{formatTSV, formatJSON} {
		enc, row := asciiRow(format)
		rows := func() {
			for i := 0; i < 10000; i++ {
				_ = enc.row(row)
			}
		}
		rows()
		if a := testing.AllocsPerRun(20, rows); a != 0 {
			t.Errorf("%s: ten thousand warmed rows allocate %.0f objects, want 0", format, a)
		}
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	for _, format := range []string{formatTSV, formatJSON} {
		b.Run(format, func(b *testing.B) {
			enc, row := asciiRow(format)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = enc.row(row)
			}
		})
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// clients is the number of closed-loop clients of every HTTP workload:
// one per CPU of the two-CPU container the benchmark is sized for. Each
// sends its next request only after the previous reply is read to the end.
const clients = 2

// done is one completed op as a client saw it. Row counts are checked
// against the oracle after the window, so checking costs the server
// under test no CPU while it is being timed.
type done struct {
	Op    op
	Start time.Duration // since the window opened
	Lat   time.Duration
	Rows  int
	Err   string // transport error, bad status or truncated document; "" when well-formed
}

// newHTTPClient returns a keep-alive client with one connection per
// closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}
}

// reader issues ops against one server and counts the rows of each
// reply without decoding it: a benchmark client that parsed every
// document would spend more CPU than the server it measures.
type reader struct {
	hc   *http.Client
	base string
	buf  []byte
}

func newReader(hc *http.Client, base string) *reader {
	return &reader{hc: hc, base: base, buf: make([]byte, 64<<10)}
}

var (
	rowEndJSON   = []byte("}}")
	truncatedKey = []byte(`"truncated":true`)
)

// do sends one op and reads its reply to the end. A TSV reply has one
// line per row after the header. A JSON reply closes every row with
// "}}" (a binding object inside a row object) and the document with one
// more; the generated data has no braces and "}}}" never occurs, so
// counting is exact.
func (r *reader) do(o op) (rows int, err error) {
	resp, err := r.hc.Get(r.base + "/sparql?" + o.query())
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	sep := []byte("\n")
	if o.Format == "json" {
		sep = rowEndJSON
	}
	marks := 0
	var carry byte // last byte of the previous chunk: a "}}" may straddle two reads
	var tail []byte
	for {
		n, rerr := resp.Body.Read(r.buf)
		chunk := r.buf[:n]
		if n > 0 {
			marks += bytes.Count(chunk, sep)
			if o.Format == "json" {
				if carry == '}' && chunk[0] == '}' {
					marks++
				}
				carry = chunk[n-1]
				tail = append(tail[:0], chunk[max(0, n-32):]...)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, rerr
		}
	}
	if o.Format == "json" && bytes.Contains(tail, truncatedKey) {
		return 0, fmt.Errorf("truncated document")
	}
	if marks < 1 {
		return 0, fmt.Errorf("malformed %s document", o.Format)
	}
	return marks - 1, nil
}

// closedLoop runs the clients' schedules against the server until the
// window closes and returns every completed op. An op in flight when
// the window closes is finished and counted.
func closedLoop(hc *http.Client, base string, scheds []schedule, window time.Duration) ([]done, time.Duration) {
	var mu sync.Mutex
	var all []done
	var wg sync.WaitGroup
	start := time.Now()
	for _, sched := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newReader(hc, base)
			var mine []done
			for time.Since(start) < window {
				o := sched()
				t := time.Now()
				rows, err := r.do(o)
				d := done{Op: o, Start: t.Sub(start), Lat: time.Since(t), Rows: rows}
				if err != nil {
					d.Err = err.Error()
				}
				mine = append(mine, d)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// fetchMappings runs one op and decodes the whole SPARQL-JSON document
// into variable→IRI maps; used by the untimed row-set checks only.
func fetchMappings(hc *http.Client, base string, o op) ([]map[string]string, error) {
	resp, err := hc.Get(base + "/sparql?" + o.query())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
		Truncated bool `json:"truncated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if doc.Truncated {
		return nil, fmt.Errorf("truncated document")
	}
	out := make([]map[string]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		m := make(map[string]string, len(b))
		for k, v := range b {
			m[k] = v.Value
		}
		out[i] = m
	}
	return out, nil
}

// writeAck is the outcome of one POST /ingest batch.
type writeAck struct {
	Late time.Duration // how long after its due time the batch was sent
	Lat  time.Duration // due time → acknowledgement
	Err  string
}

// openLoopWriter posts the batches on a fixed schedule, one per
// interval whether or not the server keeps up, and times each from the
// moment it was due: a stall delays the batches queued behind it and
// that wait is part of their latency.
func openLoopWriter(hc *http.Client, base string, batches [][]byte, interval time.Duration) []writeAck {
	acks := make([]writeAck, len(batches))
	start := time.Now()
	for i, body := range batches {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		acks[i].Late = time.Since(due)
		err := postBatch(hc, base, body)
		acks[i].Lat = time.Since(due)
		if err != nil {
			acks[i].Err = err.Error()
		}
	}
	return acks
}

// postBatch sends one N-Triples body and requires the NDJSON summary to
// acknowledge it whole.
func postBatch(hc *http.Client, base string, body []byte) error {
	resp, err := hc.Post(base+"/ingest", "application/n-triples", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	lines := bytes.Split(bytes.TrimSpace(reply), []byte("\n"))
	var sum struct {
		Done  bool   `json:"done"`
		Error string `json:"error"`
		Read  int    `json:"triples_read"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return fmt.Errorf("decoding ingest summary: %w", err)
	}
	if !sum.Done || sum.Error != "" {
		return fmt.Errorf("ingest not acknowledged: %s", sum.Error)
	}
	if want := bytes.Count(body, []byte("\n")); sum.Read != want {
		return fmt.Errorf("ingest read %d of %d triples", sum.Read, want)
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"wdsparql"
	"wdsparql/internal/core"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
	"wdsparql/internal/sparql"
)

// The traced pass re-executes the first ops of a workload's own seeded
// schedule stage by stage, in process and on one goroutine, through the
// public functions of each layer. Every span is recorded here, around
// the calls into the layer; nothing inside the program is instrumented.
//
// Two timings of an op are authentic: the socket round trip against the
// real wdserve child, and the in-process Server.Handler call. The stages
// under the handler (parse, translate, compile, plan, the row drain, the
// first row) are separate calls of the same pure functions on the same
// inputs, laid out under their parent in execution order and clipped to
// it, so a layer's self time is its span minus what its children cover.

// span is one timed stage of one replayed op, as written to
// trace-<workload>.jsonl. Times are nanoseconds since the op began.
type span struct {
	Trace   int              `json:"trace"` // index of the op in the replay
	Span    string           `json:"span"`
	Parent  string           `json:"parent,omitempty"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// spanNames are the spans a replay can record, in table order; every
// traced run reports a share for each (0 when the workload never
// enters the layer).
var spanNames = []string{
	"net.transport", "server.handler", "wdsparql.prepare", "sparql.parse", "ptree.translate",
	"core.compile", "plan.compile", "wdsparql.rows", "core.first_row",
	"server.ingest", "rdf.decode", "wdsparql.apply_delta", "wdsparql.refreeze",
	"wdsparql.ask", "core.match_subtree", "hom.extension_test",
}

// How many ops of each workload the traced pass replays.
var traceOps = map[string]int{"lookup_mix": 500, "scan_stream": 30, "page_first": 120, "ingest_read": 40, "ask_frontier": 100}

// readsPerBatch is how many reads the ingest_read replay runs on each
// generation, between two batches.
const readsPerBatch = 12

// stage is a measured duration waiting to be laid out under a parent.
type stage struct {
	name     string
	dur      time.Duration
	counts   map[string]int64
	children []*stage
}

type tracer struct {
	spans []span
	ops   int
}

// record lays the stage tree of one op out as spans: each child starts
// where its previous sibling ended and is clipped to its parent.
func (t *tracer) record(root *stage) {
	var lay func(s *stage, parent string, start, limit time.Duration)
	lay = func(s *stage, parent string, start, limit time.Duration) {
		end := min(start+s.dur, limit)
		t.spans = append(t.spans, span{Trace: t.ops, Span: s.name, Parent: parent,
			StartNS: int64(start), EndNS: int64(end), Counts: s.counts})
		at := start
		for _, c := range s.children {
			lay(c, s.name, at, end)
			at = min(at+c.dur, end)
		}
	}
	lay(root, "", 0, root.dur)
	t.ops++
}

// layer is one row of the per-layer table.
type layer struct {
	Name   string
	SelfNS int64
	Spans  int
	Counts map[string]int64
}

// reduce turns the spans into per-layer self times: a span's duration
// minus the part its children cover. It returns the layers and the
// summed duration of the op spans.
func (t *tracer) reduce() ([]layer, int64) {
	type key struct {
		trace int
		span  string
	}
	covered := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			covered[key{s.Trace, s.Parent}] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*layer{}
	var total int64
	for _, s := range t.spans {
		l := byName[s.Span]
		if l == nil {
			l = &layer{Name: s.Span, Counts: map[string]int64{}}
			byName[s.Span] = l
		}
		l.SelfNS += s.EndNS - s.StartNS - covered[key{s.Trace, s.Span}]
		l.Spans++
		for k, v := range s.Counts {
			l.Counts[k] += v
		}
		if s.Parent == "" {
			total += s.EndNS - s.StartNS
		}
	}
	var out []layer
	for _, l := range byName {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out, total
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// discard is the ResponseWriter of in-process handler calls. It
// supports the flush and write-deadline calls the streaming handler
// makes, and keeps nothing but the status and a byte count.
type discard struct {
	header http.Header
	code   int
	bytes  int64
}

func (d *discard) Header() http.Header {
	if d.header == nil {
		d.header = http.Header{}
	}
	return d.header
}
func (d *discard) WriteHeader(code int) { d.code = code }
func (d *discard) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	d.bytes += int64(len(p))
	return len(p), nil
}
func (d *discard) Flush()                           {}
func (d *discard) SetWriteDeadline(time.Time) error { return nil }

// serve times one in-process handler call.
func serve(h http.Handler, method, target string, body []byte) (time.Duration, *discard, error) {
	req, err := http.NewRequest(method, "http://in-process"+target, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	w := &discard{}
	d := timeIt(func() { h.ServeHTTP(w, req) })
	if w.code != http.StatusOK {
		return d, w, fmt.Errorf("%s %s: in-process handler replied %d", method, target, w.code)
	}
	return d, w, nil
}

// twin is the pair the replay runs each op on: a Server over an engine
// for the authentic handler call, and a second engine over the same
// graph with the same cache size, which sees the same texts in the same
// order and so tells whether the handler's prepare was a hit, and
// supplies the prepared query for the separate stages.
type twin struct {
	handler http.Handler
	side    *wdsparql.Engine
}

// defaultCache is wdserve's -query-cache default.
const defaultCache = 128

func newTwin(g func() (*wdsparql.Engine, error), cfg server.Config) (*twin, error) {
	eng, err := g()
	if err != nil {
		return nil, err
	}
	side, err := g()
	if err != nil {
		return nil, err
	}
	cfg.Engine = eng
	return &twin{handler: server.New(cfg).Handler(), side: side}, nil
}

// prepareStages re-runs the prepare pipeline of a cache miss through
// the layers' own entry points and returns it as a stage tree.
func prepareStages(text string, g *rdf.Graph) (*stage, error) {
	var p sparql.Pattern
	var f ptree.Forest
	var err error
	tParse := timeIt(func() { p, err = sparql.Parse(text) })
	if err != nil {
		return nil, err
	}
	tTranslate := timeIt(func() {
		inner := p
		if sel, ok := p.(sparql.Select); ok {
			if err = sparql.CheckWellDesigned(p); err != nil {
				return
			}
			inner = sel.Where
		}
		f, err = ptree.WDPF(inner)
	})
	if err != nil {
		return nil, err
	}
	tCompile := timeIt(func() { core.CompileForest(f, g) })
	tPlan, pats := planForest(f, g)
	return &stage{name: "wdsparql.prepare", dur: tParse + tTranslate + tCompile, children: []*stage{
		{name: "sparql.parse", dur: tParse, counts: map[string]int64{"bytes": int64(len(text))}},
		{name: "ptree.translate", dur: tTranslate, counts: map[string]int64{"trees": int64(len(f))}},
		{name: "core.compile", dur: tCompile, children: []*stage{
			{name: "plan.compile", dur: tPlan, counts: map[string]int64{"patterns": int64(pats)}},
		}},
	}}, nil
}

// planForest times the planning step of every node of the forest the
// way core.CompileForest reaches it: hom compiles the node's patterns
// (untimed here) and RowProgram.BuildPlan plans them with the
// ancestors' slots bound on entry. The encoding and the rule that a
// program with a constant the graph does not hold is never planned are
// hom's own. Equality filters, which core attaches before planning, are
// left out: they only sharpen the estimates.
func planForest(f ptree.Forest, g *rdf.Graph) (time.Duration, int) {
	layout := rdf.NewSlotLayout()
	var total time.Duration
	pats := 0
	var walk func(n *ptree.Node, entry []int32)
	walk = func(n *ptree.Node, entry []int32) {
		prog := hom.CompileRowProgram(n.Pattern, g, layout)
		pats += len(n.Pattern)
		total += timeIt(func() { prog.BuildPlan(entry) })
		own := slices.Clone(entry)
		for _, v := range n.Vars() {
			if slot := int32(layout.Intern(v.Value)); !slices.Contains(own, slot) {
				own = append(own, slot)
			}
		}
		for _, c := range n.Children {
			walk(c, own)
		}
	}
	for _, t := range f {
		walk(t.Root, nil)
	}
	return total, pats
}

// rowStages drains the op's window on the prepared query and returns
// the rows stage with the first-row stage inside, carrying the counts
// of the drain: rows, mallocs, and the exact search effort.
func rowStages(q *wdsparql.PreparedQuery, g *rdf.Graph, o op) *stage {
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rows := 0
	tRows := timeIt(func() {
		for range q.Rows(ctx, wdsparql.Limit(o.Limit), wdsparql.Offset(o.Offset)) {
			rows++
		}
	})
	runtime.ReadMemStats(&m1)
	tFirst := timeIt(func() {
		for range q.Rows(ctx, wdsparql.Limit(1), wdsparql.Offset(o.Offset)) {
		}
	})
	st := searchEffort(q, g, o)
	return &stage{name: "wdsparql.rows", dur: tRows,
		counts: map[string]int64{"rows": int64(rows), "mallocs": int64(m1.Mallocs - m0.Mallocs),
			"search_nodes": st.Nodes, "count_probes": st.CountProbes, "filter_pruned": st.FilterPruned},
		children: []*stage{{name: "core.first_row", dur: min(tFirst, tRows)}}}
}

// searchEffort re-runs the op's window on a program compiled like the
// engine's, with the search counters attached. The counts are exact and
// repeat from run to run.
func searchEffort(q *wdsparql.PreparedQuery, g *rdf.Graph, o op) hom.SearchStats {
	fp := core.CompileForest(q.Forest(), g)
	if sel, ok := q.Pattern().(sparql.Select); ok && (sel.Distinct || len(sel.Vars) > 0) {
		var names []string
		for _, v := range sel.Vars {
			names = append(names, v.Value)
		}
		fp = fp.Project(names, sel.Distinct)
	}
	var st hom.SearchStats
	skip, left := o.Offset, o.Limit
	fp.Tuned(hom.ModePlanned, 0, &st).Rows(func(rdf.Row) bool {
		if skip > 0 {
			skip--
			return true
		}
		if left > 0 {
			left--
		}
		return left != 0
	})
	return st
}

// readOp replays one query op on the twin and records its spans. sock
// is the socket round trip of the same op against the real server.
func (t *tracer) readOp(tw *twin, o op, sock time.Duration) (rows int64, handler time.Duration, err error) {
	tHandler, w, err := serve(tw.handler, http.MethodGet, "/sparql?"+o.query(), nil)
	if err != nil {
		return 0, 0, err
	}
	hits := tw.side.QueryCacheStats().Hits
	var q *wdsparql.PreparedQuery
	tHit := timeIt(func() { q, err = tw.side.PrepareText(o.Text) })
	if err != nil {
		return 0, 0, err
	}
	g := tw.side.Graph()
	prep := &stage{name: "wdsparql.prepare", dur: tHit, counts: map[string]int64{"cache_hits": 1}}
	if tw.side.QueryCacheStats().Hits == hits {
		if prep, err = prepareStages(o.Text, g); err != nil {
			return 0, 0, err
		}
	}
	rowsStage := rowStages(q, g, o)
	t.record(&stage{name: "op", dur: max(sock, tHandler), children: []*stage{
		{name: "server.handler", dur: tHandler, counts: map[string]int64{"bytes_written": w.bytes},
			children: []*stage{prep, rowsStage}},
		{name: "net.transport", dur: max(0, sock-tHandler)},
	}})
	return rowsStage.counts["rows"], tHandler, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"wdsparql"
	"wdsparql/internal/gen"
)

// workloadInfo names a workload and records why it exists; the same
// text is in BENCHMARK.json and README.md.
type workloadInfo struct {
	Name, Why string
}

var workloads = []workloadInfo{
	{"lookup_mix", "tens of thousands of distinct small queries against a 128-entry prepared cache: HTTP parse, sparql, ptree, plan and compile do the work, enumeration and encoding almost none"},
	{"scan_stream", "six fixed texts (always cache hits) streaming 10k-200k TSV rows from an mmap snapshot: core enumeration, hom, rdf range reads, encoding and socket writes do the work, prepare none"},
	{"page_first", "the scan_stream texts with limit=100 and a Zipf offset: early termination, so only first-row cost counts; a streaming gain shows here and not in scan_stream"},
	{"ingest_read", "small reads beside scheduled POST /ingest batches on an 80% snapshot: delta-overlay reads, per-generation cache resets and re-freeze swaps cost here and nowhere else"},
	{"ask_frontier", "in-process Ask on the paper's F_k family, k=3..5: dw(F_k)=1 while the natural algorithm refutes a k-clique; hom, pebble and ptree do the work, storage and serving none"},
}

// config is what one invocation runs with.
type config struct {
	Seed    int64
	Window  time.Duration
	Scale   scale
	Bin     string    // directory holding the wdserve and wdsnap binaries
	Out     string    // directory for scratch data, traces and records
	Setups  int       // set-up is repeated this many times and the median reported
	Warmups int       // warm-up ops of the small-query workloads, part of set-up
	Log     io.Writer // progress and tables for a human reader
}

// outcome is what running one workload yields.
type outcome struct {
	Attempted, Failed int
	Notes             []string // the first failures, for the log
	Metrics           map[string]metric
	Detail            map[string]metric // ungated: reported and recorded, never bounded
	Samples           int               // successful ops behind the percentiles
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Notes) < 10 {
		o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
	}
}

// measured fills in the end-to-end metrics, and the ungated tail
// percentiles, from a run's set-up times, the latencies in milliseconds
// of its successful ops, the wall time of its window and the peak
// resident set of the process hosting the engine.
func (o *outcome) measured(setups, lats []float64, wall time.Duration, rssMB float64) {
	o.Samples = len(lats)
	o.Metrics["setup_s"] = metric{median(setups), "s"}
	o.Metrics["ops_per_s"] = metric{float64(len(lats)) / wall.Seconds(), "1/s"}
	o.Metrics["lat_p50_ms"] = metric{quantile(lats, 0.50), "ms"}
	o.Metrics["lat_p95_ms"] = metric{quantile(lats, 0.95), "ms"}
	o.Metrics["rss_peak_mb"] = metric{rssMB, "MB"}
	o.Detail["lat_p99_ms"] = metric{quantile(lats, 0.99), "ms"}
	o.Detail["lat_max_ms"] = metric{quantile(lats, 1), "ms"}
}

// inputs are the generated files of one run.
type inputs struct {
	ds        *dataset
	full      string   // snapshot image of everything; "" when not built
	base      string   // snapshot image of the first 80 % of persons; "" when not built
	tailLines [][]byte // the lines of tail.nt, read when base is built
	genS      float64
}

// writeInterval is the fixed schedule of ingest_read's writer.
const writeInterval = 250 * time.Millisecond

// prepareInputs generates the data from the seed and builds the
// snapshot images asked for. Nothing here is timed as set-up: a real
// deployment is handed its data.
func prepareInputs(cfg *config, dir string, full, base bool) (*inputs, error) {
	t := time.Now()
	ds, err := generateSocial(dir, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{ds: ds}
	if full {
		in.full = filepath.Join(dir, "social.wdsnap")
		if err := buildSnapshot(cfg.Bin, ds.All, in.full); err != nil {
			return nil, err
		}
	}
	if base {
		in.base = filepath.Join(dir, "base.wdsnap")
		if err := buildSnapshot(cfg.Bin, ds.Base, in.base); err != nil {
			return nil, err
		}
		if in.tailLines, err = readLines(ds.Tail); err != nil {
			return nil, err
		}
	}
	in.genS = time.Since(t).Seconds()
	return in, nil
}

// splitTail spreads the tail over the window: one POST body per write
// interval, so the last batch is due just before the window closes.
func splitTail(lines [][]byte, window time.Duration) [][]byte {
	n := max(1, int(window/writeInterval))
	per := (len(lines) + n - 1) / n
	var bodies [][]byte
	for len(lines) > 0 {
		k := min(per, len(lines))
		bodies = append(bodies, bytes.Join(lines[:k], nil))
		lines = lines[k:]
	}
	return bodies
}

// refreezeAt is wdserve's -refreeze-at for ingest_read: 2/11 of the
// tail (22,000 triples at full scale), so that the overlay is compacted
// five times on every seed and the last compaction starts at 10/11 of the
// window, not at its edge, where it would fall inside on some seeds and
// outside on others.
func refreezeAt(tailTriples int) int { return max(1, 2*tailTriples/11) }

// serverArgs is the load path each served workload starts wdserve on;
// every other flag keeps its default.
func serverArgs(name string, in *inputs) []string {
	switch name {
	case "lookup_mix":
		return []string{"-data", in.ds.All}
	case "ingest_read":
		return []string{"-snapshot", in.base, "-refreeze-at", strconv.Itoa(refreezeAt(len(in.tailLines)))}
	}
	return []string{"-snapshot", in.full}
}

// warmupOps are sent once the server listens and before it counts as
// set up: they fault the image in and build the lazy statistics catalog.
func warmupOps(cfg *config, name string) ([]op, error) {
	var ops []op
	switch name {
	case "scan_stream", "page_first":
		for _, s := range scanTexts {
			ops = append(ops, scanOp(name, s.Text))
		}
	default:
		sched, err := newSchedule(cfg.Seed, name, -1, cfg.Scale)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Warmups; i++ {
			ops = append(ops, sched())
		}
	}
	return ops, nil
}

// runHTTP runs one of the four served workloads: generate, set up
// (several times), drive the window, then check every answer.
func runHTTP(cfg *config, name string) (*outcome, error) {
	dir, err := os.MkdirTemp(cfg.Out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ingest := name == "ingest_read"
	in, err := prepareInputs(cfg, dir, name == "scan_stream" || name == "page_first", ingest)
	if err != nil {
		return nil, err
	}
	warm, err := warmupOps(cfg, name)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set-up: process start until the last warm-up reply. Every
	// repetition is a fresh process; the last one stays up and is measured.
	var srv *child
	var setups []float64
	for i := 0; i < cfg.Setups; i++ {
		if srv != nil {
			srv.stop()
		}
		t := time.Now()
		if srv, err = startServer(cfg.Bin, serverArgs(name, in)...); err != nil {
			return nil, err
		}
		r := newReader(hc, srv.base)
		for _, o := range warm {
			if _, err := r.do(o); err != nil {
				srv.stop()
				return nil, fmt.Errorf("warm-up op %q: %w", o.Text, err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.stop()

	scheds := make([]schedule, clients)
	for c := range scheds {
		if scheds[c], err = newSchedule(cfg.Seed, name, c, cfg.Scale); err != nil {
			return nil, err
		}
	}
	var bodies [][]byte
	if ingest {
		scheds = scheds[:1] // the second client of ingest_read is the writer
		bodies = splitTail(in.tailLines, cfg.Window)
	}
	before, err := srv.stats(hc)
	if err != nil {
		return nil, err
	}
	var acks []writeAck
	written := make(chan struct{})
	go func() {
		defer close(written)
		acks = openLoopWriter(hc, srv.base, bodies, writeInterval)
	}()
	ops, wall := closedLoop(hc, srv.base, scheds, cfg.Window)
	<-written
	rss, err := rssPeakMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	after, err := srv.stats(hc)
	if err != nil {
		return nil, err
	}

	// Checks, untimed. The oracle holds what the server holds now.
	orc, err := newOracle(in.ds.All)
	if err != nil {
		return nil, err
	}
	out := &outcome{Attempted: len(ops), Metrics: map[string]metric{}, Detail: map[string]metric{}}
	var texts []string
	seen := map[string]bool{}
	for _, d := range ops {
		if !seen[d.Op.Text] {
			seen[d.Op.Text] = true
			texts = append(texts, d.Op.Text)
		}
	}
	var totals map[string]int
	if !ingest {
		// While batches land a read's count depends on the generation
		// it ran on, so ingest_read checks well-formedness per op and
		// exact agreement after the window instead.
		if totals, err = orc.counts(texts); err != nil {
			return nil, err
		}
	}
	var lats []float64
	rows := 0
	for _, d := range ops {
		switch {
		case d.Err != "":
			out.fail("%s: %s", d.Op.Text, d.Err)
		case totals != nil && d.Rows != d.Op.window(totals[d.Op.Text]):
			out.fail("%s limit=%d offset=%d: %d rows, want %d", d.Op.Text, d.Op.Limit, d.Op.Offset, d.Rows, d.Op.window(totals[d.Op.Text]))
		default:
			lats = append(lats, ms(d.Lat))
			rows += d.Rows
		}
	}
	for _, msg := range verifyRowSets(name, orc, hc, srv.base, ops, after) {
		out.fail("%s", msg)
	}
	for i, a := range acks {
		out.Attempted++
		if a.Err != "" {
			out.fail("ingest batch %d: %s", i, a.Err)
		}
	}

	out.measured(setups, lats, wall, rss)
	out.Detail["gen_s"] = metric{in.genS, "s"}
	out.Detail["rows_per_s"] = metric{float64(rows) / wall.Seconds(), "1/s"}
	for _, s := range scanTexts {
		var mine []float64
		for _, d := range ops {
			if d.Op.Text == s.Text && d.Err == "" {
				mine = append(mine, ms(d.Lat))
			}
		}
		if len(mine) > 0 {
			out.Detail["lat_p50_ms."+s.Name] = metric{median(mine), "ms"}
		}
	}
	out.Detail["rows_per_op"] = metric{float64(rows) / float64(max(1, len(lats))), "count"}
	out.Detail["distinct_texts"] = metric{float64(len(texts)), "count"}
	hits := float64(after.QueryCache.Hits - before.QueryCache.Hits)
	misses := float64(after.QueryCache.Misses - before.QueryCache.Misses)
	// An ingest generation starts with an empty cache and zeroed
	// counters, so on ingest_read this is the last generation's ratio.
	if !ingest && hits+misses > 0 {
		out.Detail["cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	out.Detail["server.shed"] = metric{float64(after.Shed), "count"}
	out.Detail["server.timeouts"] = metric{float64(after.Timeouts), "count"}
	out.Detail["server.write_stalls"] = metric{float64(after.WriteStalls), "count"}
	out.Detail["server.panics"] = metric{float64(after.Panics), "count"}
	out.Detail["server.rejected"] = metric{float64(after.Rejected), "count"}
	if after.Shed+after.Timeouts+after.WriteStalls+after.Panics+after.Rejected > 0 {
		out.fail("server counters: shed %d, timeouts %d, write stalls %d, panics %d, rejected %d (all must be 0)",
			after.Shed, after.Timeouts, after.WriteStalls, after.Panics, after.Rejected)
	}
	if ingest {
		var wl, late []float64
		for _, a := range acks {
			wl = append(wl, ms(a.Lat))
			late = append(late, ms(a.Late))
		}
		out.Detail["write_mean_ms"] = metric{mean(wl), "ms"}
		out.Detail["write_max_ms"] = metric{quantile(wl, 1), "ms"}
		out.Detail["write_late_max_ms"] = metric{quantile(late, 1), "ms"}
		out.Detail["write_batches"] = metric{float64(len(acks)), "count"}
		out.Detail["server.refreezes"] = metric{float64(after.Ingest.Refreezes), "count"}
		if after.Ingest.RefreezeFailures > 0 {
			out.fail("%d re-freeze attempts failed", after.Ingest.RefreezeFailures)
		}
	}
	return out, nil
}

// verifyRowSets is the exact-agreement pass after the window: a seeded
// sample of the ops the clients ran, fetched again and compared as sets.
func verifyRowSets(name string, orc *oracle, hc *http.Client, base string, ops []done, after serverStats) []string {
	var bad []string
	var sample []op
	seen := map[string]bool{}
	switch name {
	case "lookup_mix", "ingest_read":
		for _, d := range ops {
			if len(sample) == 40 {
				break
			}
			if !seen[d.Op.Text] {
				seen[d.Op.Text] = true
				sample = append(sample, d.Op)
			}
		}
		bad = orc.checkRowSets(hc, base, sample, 20)
	case "scan_stream":
		// One whole stream, the smallest; the other five are held to
		// their exact row counts per op.
		bad = orc.checkRowSets(hc, base, []op{{Text: scanTexts[0].Text, Format: "json", Limit: -1}}, 0)
	case "page_first":
		for _, d := range ops {
			if len(sample) == 12 {
				break
			}
			key := d.Op.query()
			if !seen[key] {
				seen[key] = true
				sample = append(sample, d.Op)
			}
		}
		bad = orc.checkRowSets(hc, base, sample, 0)
	}
	if name == "ingest_read" {
		// No acknowledged batch may be lost: the server must now hold
		// exactly the oracle's triples and answer the large scans alike.
		if want := orc.eng.Graph().Len(); after.Triples != want {
			bad = append(bad, fmt.Sprintf("server holds %d triples after ingest, want %d", after.Triples, want))
		}
		var texts []string
		for _, s := range scanTexts {
			texts = append(texts, s.Text)
		}
		totals, err := orc.counts(texts)
		if err != nil {
			return append(bad, err.Error())
		}
		r := newReader(hc, base)
		for _, text := range texts {
			n, err := r.do(op{Text: text, Format: "tsv", Limit: -1})
			if err != nil || n != totals[text] {
				bad = append(bad, fmt.Sprintf("after ingest %s: %d rows (%v), want %d", text, n, err, totals[text]))
			}
		}
	}
	return bad
}

// askInstance is one (k, data variant) cell of ask_frontier.
type askInstance struct {
	K      int
	Name   string
	Member bool // by construction: µ ∈ ⟦F_k⟧G exactly when the q-structure is absent
	g      *wdsparql.Graph
	q      *wdsparql.PreparedQuery
}

// fkSize is the Turán graph size of every F_k data set.
const fkSize = 24

// buildAskInstances constructs the nine F_k engines with default
// options; its duration is ask_frontier's set-up.
func buildAskInstances(opts ...wdsparql.Option) []*askInstance {
	var out []*askInstance
	for _, k := range []int{3, 4, 5} {
		for _, v := range []struct {
			name          string
			withQ, clique bool
		}{{"member", false, false}, {"nonmember", true, false}, {"clique", false, true}} {
			g := gen.FkData(k, fkSize, v.withQ, v.clique)
			q := wdsparql.NewEngine(g, opts...).PrepareForest(gen.Fk(k))
			out = append(out, &askInstance{K: k, Name: v.name, Member: !v.withQ, g: g, q: q})
		}
	}
	return out
}

// askSchedule is ask_frontier's seeded op stream: which instance each
// op asks. A block of 13 holds every instance once and the two k = 4
// instances that pay the refutation three times, so that the median op
// is one of those (1.7 ms) and the 95th percentile a k = 5 refutation
// (23 ms). With equal weights the median is a 0.1 ms op, whose timing is
// mostly the state the previous op left the CPU caches in.
func askSchedule(seed int64, insts []*askInstance) func() int {
	rng := rand.New(rand.NewSource(scheduleSeed(seed, "ask_frontier", 0)))
	weights := make([]int, len(insts))
	for i, in := range insts {
		weights[i] = 1
		if in.K == 4 && in.Name != "clique" {
			weights[i] = 3
		}
	}
	return blockDraw(rng, weights)
}

// runAsk runs ask_frontier: one goroutine, in process, no server.
func runAsk(cfg *config) (*outcome, error) {
	ctx := context.Background()
	mu := gen.FkMu()
	out := &outcome{Metrics: map[string]metric{}, Detail: map[string]metric{}}

	var insts []*askInstance
	var setups []float64
	for i := 0; i < cfg.Setups; i++ {
		d := timeIt(func() {
			insts = buildAskInstances()
			for _, in := range insts {
				_, _ = in.q.Ask(ctx, mu) // warm-up; answers are checked below
			}
		})
		setups = append(setups, d.Seconds())
	}

	// The Theorem 1 algorithm at k = 1 is complete for F_k (dw = 1):
	// it must agree with the by-construction truth on every instance.
	for i, ref := range buildAskInstances(wdsparql.WithAlgorithm(wdsparql.AlgPebble), wdsparql.WithPebbleK(1)) {
		got, err := ref.q.Ask(ctx, mu)
		if err != nil || got != insts[i].Member {
			return nil, fmt.Errorf("pebble k=1 reference on F_%d/%s: %v (%v), want %v", ref.K, ref.Name, got, err, insts[i].Member)
		}
	}

	draw := askSchedule(cfg.Seed, insts)
	byInst := make([][]float64, len(insts))
	var lats []float64
	start := time.Now()
	for time.Since(start) < cfg.Window {
		i := draw()
		in := insts[i]
		t := time.Now()
		got, err := in.q.Ask(ctx, mu)
		lat := time.Since(t)
		out.Attempted++
		if err != nil || got != in.Member {
			out.fail("Ask on F_%d/%s: %v (%v), want %v", in.K, in.Name, got, err, in.Member)
			continue
		}
		lats = append(lats, ms(lat))
		byInst[i] = append(byInst[i], ms(lat))
	}
	wall := time.Since(start)
	rss, err := rssPeakMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.measured(setups, lats, wall, rss)
	for i, in := range insts {
		out.Detail[fmt.Sprintf("lat_p50_ms.k%d.%s", in.K, in.Name)] = metric{median(byInst[i]), "ms"}
	}
	return out, nil
}

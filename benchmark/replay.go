package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wdsparql"
	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
)

// replay is what a staged replay hands back besides its spans and the
// failures it notes in the run's outcome.
type replay struct {
	timedNS    int64       // the handler (or Ask) calls as timed inside the staged pass, summed
	untracedNS int64       // the same calls on a fresh engine with no staging around them
	stats      serverStats // the real child's /stats after the socket pass; zero on ask_frontier
}

// overheadPct is what staging costs the calls it surrounds.
func (r replay) overheadPct() float64 {
	if r.untracedNS == 0 {
		return 0 // no call succeeded
	}
	return 100 * float64(r.timedNS-r.untracedNS) / float64(r.untracedNS)
}

// snapshotEngine opens a snapshot by mmap, as wdserve -snapshot does.
// The mapping stays open for the rest of the process: every engine of a
// traced run is used until the run ends.
func snapshotEngine(path string) (*wdsparql.Engine, error) {
	eng, _, err := wdsparql.NewEngineFromSnapshot(path, wdsparql.SnapshotMmap, wdsparql.WithQueryCache(defaultCache))
	return eng, err
}

// replayHTTP replays the first ops of one served workload: once over
// the socket against the real child (one client), once handler-only on
// a fresh twin, once staged on a second twin.
func replayHTTP(cfg *config, name string, in *inputs, t *tracer, out *outcome) (replay, error) {
	var res replay
	n := traceOps[name]
	sched, err := newSchedule(cfg.Seed, name, 0, cfg.Scale)
	if err != nil {
		return res, err
	}
	var ops []op
	for len(ops) < n {
		ops = append(ops, sched())
	}

	// The socket pass: the real binary, the workload's own load path.
	srv, err := startServer(cfg.Bin, serverArgs(name, in)...)
	if err != nil {
		return res, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	r := newReader(hc, srv.base)
	socks := make([]time.Duration, len(ops))
	sockRows := make([]int, len(ops))
	for i, o := range ops {
		var err error
		socks[i] = timeIt(func() { sockRows[i], err = r.do(o) })
		if err != nil {
			out.fail("socket op %d: %v", i, err)
		}
	}
	res.stats, err = srv.stats(hc)
	srv.stop()
	if err != nil {
		return res, err
	}

	var g *wdsparql.Graph
	if name == "lookup_mix" {
		if g, err = loadGraph(in.ds.All); err != nil {
			return res, err
		}
	}
	engine := func() (*wdsparql.Engine, error) {
		if g != nil {
			return wdsparql.NewEngine(g, wdsparql.WithQueryCache(defaultCache)), nil
		}
		return snapshotEngine(in.full)
	}
	plain, err := newTwin(engine, server.Config{MaxWorkers: 1})
	if err != nil {
		return res, err
	}
	for _, o := range ops {
		d, _, err := serve(plain.handler, http.MethodGet, "/sparql?"+o.query(), nil)
		if err != nil {
			return res, err
		}
		res.untracedNS += int64(d)
	}
	tw, err := newTwin(engine, server.Config{MaxWorkers: 1})
	if err != nil {
		return res, err
	}
	for i, o := range ops {
		rows, tHandler, err := t.readOp(tw, o, socks[i])
		out.Attempted++
		if err != nil {
			out.fail("replay op %d: %v", i, err)
			continue
		}
		res.timedNS += int64(tHandler)
		if int(rows) != sockRows[i] {
			out.fail("op %d %s: %d rows over the socket, %d in process", i, o.Text, sockRows[i], rows)
		}
	}
	return res, nil
}

// replayIngest replays ingest_read: each of the first batches goes
// through POST /ingest, followed by a few reads on the generation it
// produced. The twin's side engine follows the server's generations by
// applying the same batches with the same re-freeze rule.
func replayIngest(cfg *config, in *inputs, t *tracer, out *outcome) (replay, error) {
	var res replay
	n := traceOps["ingest_read"]
	refreeze := refreezeAt(len(in.tailLines))
	batches := splitTail(in.tailLines, cfg.Window)
	batches = batches[:min(n, len(batches))]
	sched, err := newSchedule(cfg.Seed, "ingest_read", 0, cfg.Scale)
	if err != nil {
		return res, err
	}
	reads := make([][]op, len(batches))
	for b := range reads {
		for i := 0; i < readsPerBatch; i++ {
			reads[b] = append(reads[b], sched())
		}
	}

	// The socket pass: the same interleaving against the real child.
	srv, err := startServer(cfg.Bin, serverArgs("ingest_read", in)...)
	if err != nil {
		return res, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	r := newReader(hc, srv.base)
	postSock := make([]time.Duration, len(batches))
	readSock := make([][]time.Duration, len(batches))
	readRows := make([][]int, len(batches))
	for b, body := range batches {
		var err error
		postSock[b] = timeIt(func() { err = postBatch(hc, srv.base, body) })
		if err != nil {
			out.fail("socket batch %d: %v", b, err)
		}
		for _, o := range reads[b] {
			var rows int
			d := timeIt(func() { rows, err = r.do(o) })
			if err != nil {
				out.fail("socket read after batch %d: %v", b, err)
			}
			readSock[b] = append(readSock[b], d)
			readRows[b] = append(readRows[b], rows)
		}
	}
	res.stats, err = srv.stats(hc)
	srv.stop()
	if err != nil {
		return res, err
	}

	cfgSrv := server.Config{MaxWorkers: 1, RefreezeAt: refreeze}
	engine := func() (*wdsparql.Engine, error) { return snapshotEngine(in.base) }
	plain, err := newTwin(engine, cfgSrv)
	if err != nil {
		return res, err
	}
	for b, body := range batches {
		d, _, err := serve(plain.handler, http.MethodPost, "/ingest", body)
		if err != nil {
			return res, err
		}
		res.untracedNS += int64(d)
		for _, o := range reads[b] {
			if d, _, err = serve(plain.handler, http.MethodGet, "/sparql?"+o.query(), nil); err != nil {
				return res, err
			}
			res.untracedNS += int64(d)
		}
	}

	tw, err := newTwin(engine, cfgSrv)
	if err != nil {
		return res, err
	}
	for b, body := range batches {
		tHandler, _, err := serve(tw.handler, http.MethodPost, "/ingest", body)
		out.Attempted++
		if err != nil {
			out.fail("replay batch %d: %v", b, err)
			continue
		}
		res.timedNS += int64(tHandler)
		var triples []wdsparql.Triple
		tDecode := timeIt(func() { triples, err = decodeTriples(body) })
		if err != nil {
			return res, err
		}
		stages := []*stage{{name: "rdf.decode", dur: tDecode, counts: map[string]int64{"triples": int64(len(triples))}}}
		var next *wdsparql.Engine
		stages = append(stages, &stage{name: "wdsparql.apply_delta",
			dur: timeIt(func() { next = tw.side.ApplyDelta(triples) })})
		if next.OverlayLen() >= refreeze {
			stages = append(stages, &stage{name: "wdsparql.refreeze", counts: map[string]int64{"refreezes": 1},
				dur: timeIt(func() { next = next.Refreeze() })})
		}
		tw.side = next
		t.record(&stage{name: "op", dur: max(postSock[b], tHandler), children: []*stage{
			{name: "server.ingest", dur: tHandler, children: stages},
			{name: "net.transport", dur: max(0, postSock[b]-tHandler)},
		}})
		for i, o := range reads[b] {
			rows, tHandler, err := t.readOp(tw, o, readSock[b][i])
			out.Attempted++
			if err != nil {
				out.fail("replay read after batch %d: %v", b, err)
				continue
			}
			res.timedNS += int64(tHandler)
			if int(rows) != readRows[b][i] {
				out.fail("read %d after batch %d %s: %d rows over the socket, %d in process", i, b, o.Text, readRows[b][i], rows)
			}
		}
	}
	return res, nil
}

// decodeTriples parses an N-Triples body the way POST /ingest does.
func decodeTriples(body []byte) ([]wdsparql.Triple, error) {
	var out []wdsparql.Triple
	err := rdf.DecodeTriples(bytes.NewReader(body), 0, func(s, p, o string) error {
		out = append(out, wdsparql.Triple{S: wdsparql.IRI(s), P: wdsparql.IRI(p), O: wdsparql.IRI(o)})
		return nil
	})
	return out, err
}

// replayAsk replays ask_frontier: the authentic Ask, then the natural
// algorithm's own steps (Lemma 1: find the matched subtree, test each
// child for an extension) timed one by one.
func replayAsk(cfg *config, t *tracer, out *outcome) replay {
	var res replay
	ctx := context.Background()
	mu := gen.FkMu()
	insts := buildAskInstances()
	draw := askSchedule(cfg.Seed, insts)
	order := make([]int, traceOps["ask_frontier"])
	for i := range order {
		order[i] = draw()
	}
	for _, i := range order {
		res.untracedNS += int64(timeIt(func() { _, _ = insts[i].q.Ask(ctx, mu) }))
	}
	for _, i := range order {
		in := insts[i]
		var got bool
		var err error
		tAsk := timeIt(func() { got, err = in.q.Ask(ctx, mu) })
		out.Attempted++
		res.timedNS += int64(tAsk)
		if err != nil || got != in.Member {
			out.fail("Ask on F_%d/%s: %v (%v), want %v", in.K, in.Name, got, err, in.Member)
		}
		g := in.g
		match := &stage{name: "core.match_subtree"}
		ext := &stage{name: "hom.extension_test", counts: map[string]int64{}}
		for _, tree := range in.q.Forest() {
			var s ptree.Subtree
			var ok bool
			match.dur += timeIt(func() { s, ok = core.FindMatchedSubtree(tree, g, mu) })
			if !ok {
				continue
			}
			extendable := false
			for _, n := range s.Children() {
				ext.counts["tests"]++
				ext.dur += timeIt(func() { extendable = hom.ExistsExtending(n.Pattern, mu, g) })
				if extendable {
					break
				}
			}
			if !extendable {
				break
			}
		}
		t.record(&stage{name: "op", dur: tAsk, children: []*stage{
			{name: "wdsparql.ask", dur: tAsk, children: []*stage{match, ext}},
		}})
	}
	return res
}

// printLayers prints the per-layer table of a replay and returns each
// span's share of the op total and the mean op total in microseconds.
// The shares must add up to the op total.
func printLayers(w io.Writer, name string, t *tracer) (map[string]float64, float64, error) {
	layers, total := t.reduce()
	if total <= 0 {
		return nil, 0, fmt.Errorf("the replay recorded no op time")
	}
	fmt.Fprintf(w, "per-layer self time, %s, %d ops replayed (self = span minus what its children cover)\n", name, t.ops)
	fmt.Fprintf(w, "%-24s %8s %12s %8s  %s\n", "layer", "spans", "self us/op", "share", "counts")
	shares := map[string]float64{}
	sum := 0.0
	for _, l := range layers {
		share := 100 * float64(l.SelfNS) / float64(total)
		shares[l.Name] = share
		sum += share
		label := l.Name
		if label == "op" {
			label = "op (outside every layer)"
		}
		keys := make([]string, 0, len(l.Counts))
		for k := range l.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var counts bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&counts, "%s=%d ", k, l.Counts[k])
		}
		fmt.Fprintf(w, "%-24s %8d %12.2f %7.2f%%  %s\n", label, l.Spans, float64(l.SelfNS)/1e3/float64(t.ops), share, counts.String())
	}
	opUS := float64(total) / 1e3 / float64(t.ops)
	fmt.Fprintf(w, "%-24s %8d %12.2f %7.2f%%\n", "total", t.ops, opUS, sum)
	if sum < 95 || sum > 105 {
		return nil, 0, fmt.Errorf("layer shares add up to %.1f%% of the op total", sum)
	}
	return shares, opUS, nil
}

// runTrace is the traced run of one workload: the staged replay of its
// first ops, then the layer probes.
func runTrace(cfg *config, name string) (*outcome, error) {
	dir, err := os.MkdirTemp(cfg.Out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Every traced run builds both images: the layer probes are the same
	// for every workload.
	in, err := prepareInputs(cfg, dir, true, true)
	if err != nil {
		return nil, err
	}
	out := &outcome{Metrics: map[string]metric{}}
	t := &tracer{}
	var res replay
	switch name {
	case "ask_frontier":
		res = replayAsk(cfg, t, out)
	case "ingest_read":
		res, err = replayIngest(cfg, in, t, out)
	default:
		res, err = replayHTTP(cfg, name, in, t, out)
	}
	if err != nil {
		return nil, err
	}
	out.Samples = out.Attempted
	tracePath := filepath.Join(cfg.Out, "trace-"+name+".jsonl")
	if err := t.write(tracePath); err != nil {
		return nil, err
	}
	// A replay whose every op failed has no spans to reduce: the failures
	// are already counted, and the shares are reported as 0.
	var shares map[string]float64
	var opUS float64
	if t.ops > 0 {
		if shares, opUS, err = printLayers(cfg.Log, name, t); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(cfg.Log, "tracing overhead: the timed calls took %.2f ms inside the staged replay, %.2f ms on their own: %+.1f%%\n",
		float64(res.timedNS)/1e6, float64(res.untracedNS)/1e6, res.overheadPct())
	fmt.Fprintf(cfg.Log, "spans written to %s\n", tracePath)
	out.Metrics["trace.op_us"] = metric{opUS, "us"}
	out.Metrics["trace.overhead_pct"] = metric{res.overheadPct(), "%"}
	for _, s := range spanNames {
		out.Metrics["trace.share."+s] = metric{shares[s], "%"}
	}
	st := res.stats
	ratio := 0.0
	if lookups := st.QueryCache.Hits + st.QueryCache.Misses; lookups > 0 {
		ratio = float64(st.QueryCache.Hits) / float64(lookups)
	}
	out.Metrics["wdsparql.cache_hit_ratio"] = metric{ratio, "ratio"}
	out.Metrics["server.refreezes"] = metric{float64(st.Ingest.Refreezes), "count"}
	out.Metrics["server.shed"] = metric{float64(st.Shed), "count"}
	out.Metrics["server.timeouts"] = metric{float64(st.Timeouts), "count"}
	out.Metrics["server.write_stalls"] = metric{float64(st.WriteStalls), "count"}
	if st.Shed+st.Timeouts+st.WriteStalls > 0 {
		out.fail("server counters after the socket pass: shed %d, timeouts %d, write stalls %d (all must be 0)", st.Shed, st.Timeouts, st.WriteStalls)
	}

	probes, err := runProbes(cfg, in)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		out.Metrics[k] = v
	}
	for _, name := range perLayerNames() {
		if _, ok := out.Metrics[name]; !ok {
			return nil, fmt.Errorf("the traced run did not measure %s", name)
		}
	}
	return out, nil
}

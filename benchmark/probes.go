package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"wdsparql"
	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
)

// The layer probes call each layer's entry point directly on seeded
// inputs and time it. They are the same in every traced run, whatever
// the workload, so a layer's number can be compared across runs; the
// replay's table says how much of a given workload that layer is.
// README.md lists, per probe, the end-to-end metric it should move.

// perLayer lists every metric of a traced run, as in BENCHMARK.json:
// the layer probes, the served workload's counters, and one share per
// replay span.
var perLayer = []struct {
	Name, Unit string
	Lower      bool // lower is better
}{
	{"sparql.parse_us", "us", true},
	{"ptree.translate_us", "us", true},
	{"core.compile_us", "us", true},
	{"plan.compile_us", "us", true},
	{"wdsparql.prepare_miss_us", "us", true},
	{"wdsparql.prepare_hit_us", "us", true},
	{"wdsparql.cache_hit_ratio", "ratio", false},
	{"core.enum_ns_per_row", "ns", true},
	{"core.enum_allocs_per_row", "count", true},
	{"core.first_row_us", "us", true},
	{"hom.nodes_per_row", "count", true},
	{"hom.count_probes_per_row", "count", true},
	{"hom.filter_pruned", "count", false},
	{"rdf.probe_ns.sealed", "ns", true},
	{"rdf.probe_ns.overlay", "ns", true},
	{"rdf.snapshot_load_ms", "ms", true},
	{"rdf.freeze_ms", "ms", true},
	{"rdf.refreeze_ms", "ms", true},
	{"rdf.bytes_per_triple", "B", true},
	{"ingest.parse_ktriples_per_s", "k/s", false},
	{"ingest.apply_delta_ms", "ms", true},
	{"server.handler_self_us", "us", true},
	{"server.encode_ns_per_row.json", "ns", true},
	{"server.encode_ns_per_row.tsv", "ns", true},
	{"net.transport_us", "us", true},
	{"server.refreezes", "count", true},
	{"server.shed", "count", true},
	{"server.timeouts", "count", true},
	{"server.write_stalls", "count", true},
	{"pebble.ask_us.k3", "us", true},
	{"pebble.ask_us.k4", "us", true},
	{"pebble.ask_us.k5", "us", true},
	{"hom.ask_naive_us.k3", "us", true},
	{"hom.ask_naive_us.k4", "us", true},
	{"hom.ask_naive_us.k5", "us", true},
	{"graphalg.widths_us", "us", true},
	{"trace.op_us", "us", true},
	{"trace.overhead_pct", "%", true},
}

// perLayerNames returns the names of perLayer followed by the replay's
// span shares, in BENCHMARK.json order.
func perLayerNames() []string {
	var names []string
	for _, p := range perLayer {
		names = append(names, p.Name)
	}
	for _, s := range spanNames {
		names = append(names, "trace.share."+s)
	}
	return names
}

// probeTexts is how many lookup texts the prepare-side probes run on.
const probeTexts = 200

// probeRepeats is how often a whole-graph probe (load, freeze, parse) is
// repeated; its median is reported.
const probeRepeats = 3

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// probes carries what the probe sections share: the run's inputs, the
// metrics measured so far, and the engines built along the way.
type probes struct {
	cfg     *config
	in      *inputs
	m       map[string]metric
	g       *wdsparql.Graph  // social.nt parsed in process
	sealed  *wdsparql.Engine // the full snapshot, mapped
	lookups []op             // distinct lookup ops no client sends
}

func runProbes(cfg *config, in *inputs) (map[string]metric, error) {
	p := &probes{cfg: cfg, in: in, m: map[string]metric{}}
	for _, section := range []func() error{p.storage, p.prepare, p.enumeration, p.serving, p.decision} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// storage probes the cold side — parse, compact, map — and the read
// side: the three probe shapes of the row search on a sealed image and
// on the same data with the tail as a live overlay.
func (p *probes) storage() error {
	var err error
	parseS := medianOf(probeRepeats, func() float64 {
		return timeIt(func() { p.g, err = loadGraph(p.in.ds.All) }).Seconds()
	})
	if err != nil {
		return err
	}
	p.m["ingest.parse_ktriples_per_s"] = metric{float64(p.g.Len()) / 1e3 / parseS, "k/s"}
	p.m["rdf.freeze_ms"] = metric{medianOf(probeRepeats, func() float64 {
		// Cloning a sealed graph copies the dictionary and the triple
		// arena and compacts them into a fresh CSR: the freeze, plus two copies.
		return ms(timeIt(func() { p.g.Clone() }))
	}), "ms"}
	p.m["rdf.snapshot_load_ms"] = metric{medianOf(probeRepeats, func() float64 {
		return ms(timeIt(func() { p.sealed, err = snapshotEngine(p.in.full) }))
	}), "ms"}
	if err != nil {
		return err
	}
	fi, err := os.Stat(p.in.full)
	if err != nil {
		return err
	}
	p.m["rdf.bytes_per_triple"] = metric{float64(fi.Size()) / float64(p.g.Len()), "B"}

	base, err := snapshotEngine(p.in.base)
	if err != nil {
		return err
	}
	tail, err := decodeTriples(bytes.Join(p.in.tailLines, nil))
	if err != nil {
		return err
	}
	var overlay *wdsparql.Engine
	p.m["ingest.apply_delta_ms"] = metric{ms(timeIt(func() { overlay = base.ApplyDelta(tail) })), "ms"}
	p.m["rdf.refreeze_ms"] = metric{ms(timeIt(func() { overlay.Refreeze() })), "ms"}
	p.m["rdf.probe_ns.sealed"] = metric{probeGraph(p.sealed.Graph(), p.cfg), "ns"}
	p.m["rdf.probe_ns.overlay"] = metric{probeGraph(overlay.Graph(), p.cfg), "ns"}
	return nil
}

// prepare probes the prepare pipeline and its stages on a seeded sample
// of distinct lookup texts.
func (p *probes) prepare() error {
	sched, err := newSchedule(p.cfg.Seed, "lookup_mix", -2, p.cfg.Scale)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for len(p.lookups) < probeTexts {
		if o := sched(); !seen[o.Text] {
			seen[o.Text] = true
			p.lookups = append(p.lookups, o)
		}
	}
	var parse, translate, compile, planT, miss, hit []float64
	cold := wdsparql.NewEngine(p.g)
	warm := wdsparql.NewEngine(p.g, wdsparql.WithQueryCache(2*probeTexts))
	for _, o := range p.lookups {
		// The miss comes first: preparing a text also fills the
		// package-wide analysis cache, which a second prepare would hit.
		d := timeIt(func() { _, err = cold.PrepareText(o.Text) })
		if err != nil {
			return err
		}
		miss = append(miss, us(d))
		st, err := prepareStages(o.Text, p.g)
		if err != nil {
			return err
		}
		parse = append(parse, us(st.children[0].dur))
		translate = append(translate, us(st.children[1].dur))
		compile = append(compile, us(st.children[2].dur))
		planT = append(planT, us(st.children[2].children[0].dur))
		if _, err := warm.PrepareText(o.Text); err != nil {
			return err
		}
	}
	for _, o := range p.lookups {
		hit = append(hit, us(timeIt(func() { _, _ = warm.PrepareText(o.Text) })))
	}
	p.m["sparql.parse_us"] = metric{median(parse), "us"}
	p.m["ptree.translate_us"] = metric{median(translate), "us"}
	p.m["core.compile_us"] = metric{median(compile), "us"}
	p.m["plan.compile_us"] = metric{median(planT), "us"}
	p.m["wdsparql.prepare_miss_us"] = metric{median(miss), "us"}
	p.m["wdsparql.prepare_hit_us"] = metric{median(hit), "us"}
	return nil
}

// enumeration drains the six scan texts on the sealed image.
func (p *probes) enumeration() error {
	var rows, mallocs, nodes, countProbes, pruned int64
	var drain time.Duration
	var first []float64
	for _, s := range scanTexts {
		q, err := p.sealed.PrepareText(s.Text)
		if err != nil {
			return err
		}
		st := rowStages(q, p.sealed.Graph(), op{Text: s.Text, Limit: -1})
		drain += st.dur
		rows += st.counts["rows"]
		mallocs += st.counts["mallocs"]
		nodes += st.counts["search_nodes"]
		countProbes += st.counts["count_probes"]
		pruned += st.counts["filter_pruned"]
		first = append(first, us(st.children[0].dur))
	}
	p.m["core.enum_ns_per_row"] = metric{float64(drain) / float64(rows), "ns"}
	p.m["core.enum_allocs_per_row"] = metric{float64(mallocs) / float64(rows), "count"}
	p.m["core.first_row_us"] = metric{median(first), "us"}
	p.m["hom.nodes_per_row"] = metric{float64(nodes) / float64(rows), "count"}
	p.m["hom.count_probes_per_row"] = metric{float64(countProbes) / float64(rows), "count"}
	p.m["hom.filter_pruned"] = metric{float64(pruned), "count"}
	return nil
}

// serving times the handler in process, net of the row drain of the
// same op, and the same lookups over a socket against the real child.
func (p *probes) serving() error {
	ctx := context.Background()
	h := server.New(server.Config{Engine: p.sealed, MaxWorkers: 1}).Handler()
	// beyondDrain is what the handler spends on an op beyond enumerating
	// its rows: request parsing, admission, encoding, writes.
	beyondDrain := func(o op) (handler, extra time.Duration, rows int, err error) {
		q, err := p.sealed.PrepareText(o.Text)
		if err != nil {
			return 0, 0, 0, err
		}
		if handler, _, err = serve(h, http.MethodGet, "/sparql?"+o.query(), nil); err != nil {
			return 0, 0, 0, err
		}
		bare := timeIt(func() {
			for range q.Rows(ctx) {
				rows++
			}
		})
		return handler, handler - bare, rows, nil
	}
	for _, format := range []string{"json", "tsv"} {
		var extra time.Duration
		rows := 0
		for _, s := range scanTexts {
			_, d, n, err := beyondDrain(op{Text: s.Text, Format: format, Limit: -1})
			if err != nil {
				return err
			}
			extra += d
			rows += n
		}
		p.m["server.encode_ns_per_row."+format] = metric{float64(extra) / float64(rows), "ns"}
	}

	srv, err := startServer(p.cfg.Bin, "-snapshot", p.in.full)
	if err != nil {
		return err
	}
	defer srv.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	r := newReader(hc, srv.base)
	var sock, handler, self []float64
	for pass := 0; pass < 2; pass++ { // the first pass fills both prepared caches
		sock, handler, self = sock[:0], handler[:0], self[:0]
		for _, o := range p.lookups[:min(len(p.lookups), defaultCache)] {
			d := timeIt(func() { _, err = r.do(o) })
			if err != nil {
				return fmt.Errorf("socket probe %q: %w", o.Text, err)
			}
			sock = append(sock, us(d))
			total, extra, _, err := beyondDrain(o)
			if err != nil {
				return err
			}
			handler = append(handler, us(total))
			self = append(self, us(extra))
		}
	}
	p.m["server.handler_self_us"] = metric{median(self), "us"}
	p.m["net.transport_us"] = metric{median(sock) - median(handler), "us"}
	return nil
}

// decision times Ask on the F_k members under both algorithms, and the
// width computation a width-aware Ask would consult.
func (p *probes) decision() error {
	ctx := context.Background()
	mu := gen.FkMu()
	for _, k := range []int{3, 4, 5} {
		data := gen.FkData(k, fkSize, false, false)
		for _, alg := range []struct {
			name string
			opts []wdsparql.Option
		}{
			{"pebble.ask_us", []wdsparql.Option{wdsparql.WithAlgorithm(wdsparql.AlgPebble), wdsparql.WithPebbleK(1)}},
			{"hom.ask_naive_us", nil},
		} {
			q := wdsparql.NewEngine(data, alg.opts...).PrepareForest(gen.Fk(k))
			p.m[fmt.Sprintf("%s.k%d", alg.name, k)] = metric{medianOf(5, func() float64 {
				return us(timeIt(func() { _, _ = q.Ask(ctx, mu) }))
			}), "us"}
		}
	}
	p.m["graphalg.widths_us"] = metric{medianOf(probeRepeats, func() float64 {
		var d time.Duration
		for _, k := range []int{3, 4, 5} {
			q := wdsparql.NewEngine(nil).PrepareForest(gen.Fk(k)) // a fresh analysis: the width is cached per prepared query
			d += timeIt(func() { q.DominationWidth() })
		}
		return us(d)
	}), "us"}
	return nil
}

// probeGraph times the three read shapes the row search issues — a
// candidate range, a count and a membership test — on seeded patterns
// over the persons, and returns the mean nanoseconds per probe.
func probeGraph(g *rdf.Graph, cfg *config) float64 {
	rng := rand.New(rand.NewSource(scheduleSeed(cfg.Seed, "rdf.probe", 0)))
	d := g.Dict()
	id := func(s string) rdf.TermID {
		t, _ := d.LookupIRI(s)
		return t
	}
	knows, likes := id("knows"), id("likes")
	const n = 20000
	pats := make([]rdf.IDTriple, n)
	for i := range pats {
		s := id(fmt.Sprintf("person%d", rng.Intn(cfg.Scale.Persons)))
		o := id(fmt.Sprintf("person%d", rng.Intn(cfg.Scale.Persons)))
		pats[i] = rdf.IDTriple{s, knows, o}
	}
	sink := 0
	v := rdf.VarID(0)
	elapsed := timeIt(func() {
		for _, p := range pats {
			ts, _ := g.LookupRangeID(rdf.IDTriple{p[0], knows, v})
			sink += len(ts)
			sink += g.MatchCountID(rdf.IDTriple{p[0], likes, v})
			if g.ContainsID(p) {
				sink++
			}
		}
	})
	runtime.KeepAlive(sink)
	return float64(elapsed) / float64(3*n)
}

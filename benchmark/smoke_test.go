package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wdsparql"
	"wdsparql/internal/server"
)

// binDir holds wdserve and wdsnap built from the enclosing checkout.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/wdserve", "./cmd/wdsnap")
	build.Dir = ".."
	if msg, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the programs under test: %v\n%s", err, msg)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyConfig(t *testing.T) *config {
	return &config{Seed: 7, Window: time.Second, Scale: toyScale, Bin: binDir, Out: t.TempDir(),
		Setups: 2, Warmups: 20, Log: io.Discard}
}

// One seed gives byte-identical data and schedules twice; another seed
// gives different ones.
func TestSeededInputs(t *testing.T) {
	gen := func(seed int64) ([]byte, string) {
		ds, err := generateSocial(t.TempDir(), toyScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := os.ReadFile(ds.All)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := os.ReadFile(ds.Base)
		tail, _ := os.ReadFile(ds.Tail)
		if !bytes.Equal(append(base, tail...), nt) {
			t.Fatal("base.nt followed by tail.nt is not social.nt")
		}
		var ops strings.Builder
		for _, w := range []string{"lookup_mix", "scan_stream", "page_first", "ingest_read"} {
			for client := 0; client < clients; client++ {
				s, err := newSchedule(seed, w, client, toyScale)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 200; i++ {
					fmt.Fprintln(&ops, w, client, s().query())
				}
			}
		}
		draw := askSchedule(seed, buildAskInstances())
		for i := 0; i < 200; i++ {
			fmt.Fprintln(&ops, draw())
		}
		return nt, ops.String()
	}
	nt1, ops1 := gen(1)
	nt1b, ops1b := gen(1)
	nt2, ops2 := gen(2)
	if !bytes.Equal(nt1, nt1b) || ops1 != ops1b {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(nt1, nt2) || ops1 == ops2 {
		t.Error("different seeds gave the same inputs")
	}
}

// Every workload, untraced and traced, runs clean at toy scale.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				cfg := toyConfig(t)
				rec := filepath.Join(cfg.Out, "runs.jsonl")
				r, err := runOne(cfg, w.Name, traced, rec)
				if err != nil {
					t.Fatalf("trace %v: %v", traced, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace %v: correct %v, %d of %d ops failed", traced, r.Correct, r.Failed, r.Attempted)
				}
				want := perLayerNames()
				if !traced {
					want = nil
					for _, g := range gated {
						want = append(want, g.Name)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, want %d", traced, len(r.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := r.Metrics[name]; !ok {
						t.Errorf("trace %v: metric %s missing", traced, name)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(cfg.Out, "trace-"+w.Name+".jsonl")); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadInfo `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, doc.Workloads[i], w)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(gated))
	}
	for i, g := range gated {
		e := doc.EndToEnd[i]
		better := "higher"
		if g.Lower {
			better = "lower"
		}
		if e.Name != g.Name || e.Unit != g.Unit || e.Better != better || e.Bound != g.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, e, g)
		}
	}
	var names []string
	for _, p := range doc.PerLayer {
		names = append(names, p.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(perLayerNames(), " "); got != want {
		t.Errorf("per_layer names differ:\n BENCHMARK.json %s\n program        %s", got, want)
	}
}

// The row counter of the timed clients agrees with a full decode.
func TestRowCountingMatchesDecode(t *testing.T) {
	ds, err := generateSocial(t.TempDir(), toyScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(ds.All)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(server.Config{Engine: wdsparql.NewEngine(g)}).Handler())
	defer srv.Close()
	r := newReader(srv.Client(), srv.URL)
	r.buf = make([]byte, 7) // tiny reads: every "}}" straddles a chunk boundary sooner or later
	for _, s := range scanTexts {
		want, err := fetchMappings(srv.Client(), srv.URL, op{Text: s.Text, Format: "json", Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"json", "tsv"} {
			got, err := r.do(op{Text: s.Text, Format: format, Limit: -1})
			if err != nil || got != len(want) {
				t.Errorf("%s as %s: counted %d rows (%v), decoded %d", s.Name, format, got, err, len(want))
			}
		}
	}
}

// -compare calls a worsening beyond the bound a regression, and a pair
// whose own spread exceeds the bound unresolved, not unchanged.
func TestCompareVerdicts(t *testing.T) {
	writeMetric := func(name, workload, metricName string, vs []float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i, v := range vs {
			rec := record{Workload: workload, Header: header{Seed: int64(i)}, Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{metricName: {Value: v}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	write := func(name string, p50 []float64) string { return writeMetric(name, "lookup_mix", "lat_p50_ms", p50) }
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.5
		noisy[i] = v * (1 + 0.2*float64(i%5))
	}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
		ok   bool
	}{
		{"same", steady, "ok", true},
		{"slower", slower, "REGRESSED", false},
		{"noisy", noisy, "unresolved", false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, write("a.jsonl", steady), write(tc.name+".jsonl", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, want %v with verdict %q:\n%s", tc.name, ok, tc.ok, tc.want, out.String())
		}
	}
	// Set-up time is held to the spread rule like every other metric, and
	// a workload only one side ran cannot pass.
	for _, tc := range []struct{ name, a, b string }{
		{"noisy setup_s", writeMetric("a.jsonl", "lookup_mix", "setup_s", steady), writeMetric("b.jsonl", "lookup_mix", "setup_s", noisy)},
		{"missing workload", write("a.jsonl", steady), writeMetric("b.jsonl", "scan_stream", "lat_p50_ms", steady)},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok || !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), " ok ") {
			t.Errorf("%s: ok=%v, want unresolved only:\n%s", tc.name, ok, out.String())
		}
	}
}

// A run whose every op failed still yields its result line: metrics
// without samples read 0, and the record can be written.
func TestAllOpsFailedStillReports(t *testing.T) {
	cfg := toyConfig(t)
	out := &outcome{Attempted: 3, Failed: 3, Metrics: map[string]metric{}, Detail: map[string]metric{}}
	out.measured([]float64{0.1}, nil, time.Second, 12)
	out.Detail["lat_p50_ms.k3.member"] = metric{median(nil), "ms"}
	out.Metrics["trace.overhead_pct"] = metric{replay{timedNS: 5}.overheadPct(), "%"}
	rec := filepath.Join(cfg.Out, "runs.jsonl")
	r, err := report(cfg, "ask_frontier", false, rec, out)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 3 || r.Failed != 3 || r.Metrics["lat_p50_ms"].Value != 0 {
		t.Errorf("result line %s", line)
	}
	if recs, err := readRecords(rec); err != nil || len(recs["ask_frontier"]["lat_p50_ms"]) != 1 {
		t.Errorf("record not written: %v %v", recs, err)
	}
}

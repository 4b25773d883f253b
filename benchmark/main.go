// Command benchmark is the repository's end-to-end and per-layer
// benchmark: it generates seeded inputs, runs one of five workloads
// against the real wdserve binary (or, for ask_frontier, the engine in
// process), checks every answer, and prints the metrics named in
// BENCHMARK.json. See README.md in this directory.
//
//	bash benchmark/run.sh --workload lookup_mix --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload lookup_mix --seed 1 --seconds 15 --trace 1
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// gated lists the end-to-end metrics of BENCHMARK.json with the share of
// the baseline median each may worsen by; -compare applies the same bounds.
var gated = []struct {
	Name, Unit string
	Lower      bool // lower is better
	Bound      float64
}{
	{"setup_s", "s", true, 0.25},
	{"ops_per_s", "1/s", false, 0.25},
	{"lat_p50_ms", "ms", true, 0.25},
	{"lat_p95_ms", "ms", true, 0.25},
	{"rss_peak_mb", "MB", true, 0.25},
}

// result is the last line of standard output, in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header identifies a run: what was measured, where and on how much.
type header struct {
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Persons    int    `json:"persons"`
	Clients    int    `json:"clients"`
	Samples    int    `json:"samples"` // successful ops behind lat_p50_ms and lat_p95_ms
}

// record is one run as appended to the --record file; -compare reads these.
type record struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Header   header            `json:"header"`
	Result   result            `json:"result"`
	Detail   map[string]metric `json:"detail,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of the data, the query constants, the op schedules and the ingest split")
		seconds  = flag.Int("seconds", 15, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the staged-replay pass and the layer probes")
		bin      = flag.String("bin", ".bench_build", "directory holding the wdserve and wdsnap binaries built from this checkout")
		out      = flag.String("out", "benchmark/out", "directory for scratch data, trace files and records")
		rec      = flag.String("record", "", "append each run as one JSON line to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two record files: -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two record files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := &config{
		Seed: *seed, Window: time.Duration(*seconds) * time.Second, Scale: fullScale,
		Bin: *bin, Out: *out, Setups: 5, Warmups: 200, Log: os.Stdout,
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	exit := 0
	for _, name := range names {
		r, err := runOne(cfg, name, *trace == 1, *rec)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		line, err := json.Marshal(r)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !r.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// runOne runs one workload, untraced or traced, logs it for a human
// reader and returns the driver's result.
func runOne(cfg *config, name string, traced bool, recordPath string) (*result, error) {
	if !slices.ContainsFunc(workloads, func(w workloadInfo) bool { return w.Name == name }) {
		return nil, fmt.Errorf("unknown workload (have %s)", workloadNames())
	}
	var out *outcome
	var err error
	switch {
	case traced:
		out, err = runTrace(cfg, name)
	case name == "ask_frontier":
		out, err = runAsk(cfg)
	default:
		out, err = runHTTP(cfg, name)
	}
	if err != nil {
		return nil, err
	}
	return report(cfg, name, traced, recordPath, out)
}

// report turns a run's outcome into the driver's result, logs it and
// appends it to the record file.
func report(cfg *config, name string, traced bool, recordPath string, out *outcome) (*result, error) {
	h := header{
		Commit: commit(), Seed: cfg.Seed, Seconds: int(cfg.Window / time.Second),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Persons: cfg.Scale.Persons, Clients: clients, Samples: out.Samples,
	}
	zeroUnmeasured(out.Metrics)
	zeroUnmeasured(out.Detail)
	r := &result{Correct: out.Failed == 0, Attempted: max(1, out.Attempted), Failed: out.Failed, Metrics: out.Metrics}
	logRun(cfg.Log, name, traced, h, out)
	if recordPath != "" {
		if err := appendRecord(recordPath, record{Workload: name, Trace: traced, Header: h, Result: *r, Detail: out.Detail}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// zeroUnmeasured reports 0 for a metric no successful op stands behind
// (a quantile of nothing is NaN, which JSON cannot carry), so that a run
// whose every op failed still ends with its result line and exit code 1.
func zeroUnmeasured(ms map[string]metric) {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			ms[name] = metric{0, m.Unit}
		}
	}
}

// commit names the measured source when the checkout is a git
// repository; the driver's checkouts are not.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func logRun(w io.Writer, name string, traced bool, h header, out *outcome) {
	fmt.Fprintf(w, "== %s (trace %v) commit %s seed %d window %ds nproc %d GOMAXPROCS %d %s persons %d clients %d samples %d\n",
		name, traced, h.Commit, h.Seed, h.Seconds, h.NProc, h.GOMAXPROCS, h.Go, h.Persons, h.Clients, h.Samples)
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d (%.3f%% of attempts)\n",
		out.Attempted, out.Failed, 100*float64(out.Failed)/float64(max(1, out.Attempted)))
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  FAILED %s\n", n)
	}
	printMetrics(w, "metric", out.Metrics)
	if len(out.Detail) > 0 {
		printMetrics(w, "detail (ungated)", out.Detail)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %16s %s\n", title, "value", "unit")
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

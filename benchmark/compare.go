package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// readRecords loads the untraced runs of a --record file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(xs, n=4): the rule the benchmark's acceptance
// is checked with.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / median(s)
}

// compareFiles prints, per workload and gated metric, both medians,
// how much worse B is than A against the metric's bound, and the
// verdict: "unresolved", never "ok", when either side's own run-to-run
// spread exceeds the bound, or when only one side has the pair (a
// crashed or partial set of runs). It reports whether every pair came
// out ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(w, "%-13s %-12s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range workloads {
		for _, g := range gated {
			xa, xb := a[wl.Name][g.Name], b[wl.Name][g.Name]
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			if len(xa) == 0 || len(xb) == 0 {
				allOK = false
				fmt.Fprintf(w, "%-13s %-12s measured on one side only  unresolved (n=%d,%d)\n", wl.Name, g.Name, len(xa), len(xb))
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if !g.Lower {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case max(sa, sb) > g.Bound:
				verdict = "unresolved"
			case worse > g.Bound:
				verdict = "REGRESSED"
			}
			if verdict != "ok" {
				allOK = false
			}
			fmt.Fprintf(w, "%-13s %-12s %12.4f %12.4f %+7.1f%% %7.0f%% %7.1f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, g.Name, ma, mb, 100*worse, 100*g.Bound, 100*sa, 100*sb, verdict, len(xa), len(xb))
		}
	}
	return allOK, nil
}

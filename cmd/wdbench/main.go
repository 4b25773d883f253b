// Command wdbench runs the experiment suite that reproduces the
// constructions and complexity claims of "The Tractability Frontier of
// Well-designed SPARQL Queries" (Romero, PODS 2018) and prints one
// table per experiment: E1–E8, the planner and filter-pushdown
// ablations E16 and E17, and on request the ablations A1–A3 and the
// micro-benchmark M1. See DESIGN.md for the experiment index;
// benchmark/ measures end-to-end performance.
//
// Usage:
//
//	wdbench [-only E3] [-full] [-ablations] [-micro] [-workers N] [-cpuprofile f] [-memprofile f]
//
// -only runs a single experiment (the others are not executed, so a
// profiled -only run measures exactly that experiment). -full extends
// the E3 sweep into the regime where the natural algorithm needs tens
// of seconds per instance. E8 (batched decision) runs its parallel
// column on a pool of -workers workers. -cpuprofile and -memprofile
// write pprof profiles of the run, so perf work on the evaluation
// hot paths can attach evidence:
//
//	wdbench -only E8 -workers 8 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Every experiment cross-validates its evaluation paths (the "agree"
// columns); any disagreement makes wdbench exit non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"wdsparql/internal/bench"
)

func main() {
	os.Exit(run())
}

// allExperiments is every experiment -only accepts, in print order.
func allExperiments(full bool, workers int) []bench.Experiment {
	return slices.Concat(bench.Experiments(full, workers), bench.AblationExperiments(), bench.MicroExperiments())
}

// experimentIDs lists the IDs of specs for help and error messages.
func experimentIDs(specs []bench.Experiment) string {
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return strings.Join(ids, ", ")
}

// run carries the whole command so that error exits unwind through the
// defers (in particular StopCPUProfile, which flushes the profile).
func run() int {
	only := flag.String("only", "", "run a single experiment: "+experimentIDs(allExperiments(false, 1)))
	full := flag.Bool("full", false, "extended sweeps (E3 up to k=7; ~1 min extra)")
	ablations := flag.Bool("ablations", false, "also run the ablations "+experimentIDs(bench.AblationExperiments()))
	micro := flag.Bool("micro", false, "also run the micro-benchmarks "+experimentIDs(bench.MicroExperiments()))
	workers := flag.Int("workers", runtime.NumCPU(), "worker-pool size for the batched experiment E8")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()

	specs := bench.Experiments(*full, *workers)
	if *only != "" {
		all := allExperiments(*full, *workers)
		i := slices.IndexFunc(all, func(s bench.Experiment) bool { return strings.EqualFold(s.ID, *only) })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "wdbench: unknown experiment %q (want one of %s)\n", *only, experimentIDs(all))
			return 2
		}
		specs = all[i : i+1]
	} else {
		if *ablations {
			specs = append(specs, bench.AblationExperiments()...)
		}
		if *micro {
			specs = append(specs, bench.MicroExperiments()...)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wdbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wdbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	disagreed := false
	for _, s := range specs {
		tbl := s.Run()
		tbl.Render(os.Stdout)
		if !tbl.Agreement() {
			fmt.Fprintf(os.Stderr, "wdbench: %s: agreement check failed (evaluation paths diverged)\n", tbl.ID)
			disagreed = true
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wdbench: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wdbench: -memprofile: %v\n", err)
			return 1
		}
	}
	if disagreed {
		return 1
	}
	return 0
}

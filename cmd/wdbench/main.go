// Command wdbench runs the experiment suite E1–E17 that reproduces the
// constructions and complexity claims of "The Tractability Frontier of
// Well-designed SPARQL Queries" (Romero, PODS 2018) and prints one
// table per experiment. See DESIGN.md for the experiment index;
// benchmark/ measures end-to-end performance.
//
// Usage:
//
//	wdbench [-only E3] [-full] [-workers N] [-cpuprofile f] [-memprofile f]
//
// -only runs a single experiment (the others are not executed, so a
// profiled -only run measures exactly that experiment). -full extends
// the E3 sweep into the regime where the natural algorithm needs tens
// of seconds per instance. E8 (batched decision) and E9 (top-down
// enumeration throughput: string pipeline vs compiled rows, rows/sec,
// sequential vs a pool of -workers workers) honour -workers; E13 (the
// serving layer) drives HTTP load at an in-process wdserve endpoint;
// E14 measures snapshot cold start (parse vs heap load vs mmap); E15
// measures the parallel ingest pipeline against the sequential reader
// and the live delta overlay against pure-frozen enumeration (honours
// -workers for the decode pool); E16 ablates the compile-time query
// planner against the per-node heuristic (wall time, search nodes and
// count probes, with byte-identical streams as the gate).
// -cpuprofile and -memprofile write pprof profiles of the run, so perf
// work on the evaluation and enumeration hot paths can attach
// evidence:
//
//	wdbench -only E9 -workers 8 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Every experiment cross-validates its evaluation paths (the "agree"
// columns span all three storage backends where data is involved);
// any disagreement makes wdbench exit non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"wdsparql/internal/bench"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so that error exits unwind through the
// defers (in particular StopCPUProfile, which flushes the profile).
func run() int {
	only := flag.String("only", "", "run a single experiment (E1..E17, A1..A3, M1)")
	full := flag.Bool("full", false, "extended sweeps (E3 up to k=7; ~1 min extra)")
	ablations := flag.Bool("ablations", false, "also run the ablation suite A1..A3")
	micro := flag.Bool("micro", false, "also run the micro-benchmarks M1")
	workers := flag.Int("workers", runtime.NumCPU(), "worker-pool size for the batched (E8) and enumeration (E9) experiments")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()

	if *only != "" && !validID(*only) {
		fmt.Fprintf(os.Stderr, "wdbench: unknown experiment %q (want E1..E10, E13..E17, A1..A3 or M1)\n", *only)
		return 2
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
	specs := bench.Experiments(*full, *workers)
	if *ablations || strings.HasPrefix(strings.ToUpper(*only), "A") {
		specs = append(specs, bench.AblationExperiments()...)
	}
	if *micro || strings.HasPrefix(strings.ToUpper(*only), "M") {
		specs = append(specs, bench.MicroExperiments()...)
	}
	disagreed := false
	for _, s := range specs {
		if *only != "" && !strings.EqualFold(s.ID, *only) {
			continue
		}
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

func validID(id string) bool {
	switch strings.ToUpper(id) {
	case "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E13", "E14", "E15", "E16", "E17", "A1", "A2", "A3", "M1":
		return true
	}
	return false
}

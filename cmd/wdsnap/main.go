// Command wdsnap builds, inspects and verifies persistent graph
// snapshots — the checksummed binary images (DESIGN.md §6) that wdserve
// serves with -snapshot and reloads with POST /reload.
//
// Usage:
//
//	wdsnap build -data graph.nt -o graph.wdsnap
//	wdsnap inspect graph.wdsnap
//	wdsnap verify [-mode heap|mmap] [-deep] graph.wdsnap
//
// build parses an N-Triples file (optionally gzipped; '-' for stdin),
// seals it into the frozen backend and writes the image
// crash-atomically: the output path never holds a partial file.
//
// inspect validates and prints only the header and section table —
// cheap even for a huge image, since no payload is read.
//
// verify runs the full load-time validation battery (every section
// CRC, every structural invariant) by actually loading the image;
// -deep additionally rebuilds the indexes from the triples and
// compares them slot for slot. Exit status 0 means the image is
// serveable; 1 means it is not, with the reason on stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"wdsparql/internal/ingest"
	"wdsparql/internal/rdf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "wdsnap: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdsnap:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  wdsnap build -data graph.nt -o graph.wdsnap
  wdsnap inspect graph.wdsnap
  wdsnap verify [-mode heap|mmap] [-deep] graph.wdsnap`)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("wdsnap build", flag.ExitOnError)
	dataPath := fs.String("data", "", "RDF graph file (N-Triples subset, optionally gzipped); '-' for stdin")
	out := fs.String("o", "", "output snapshot path")
	_ = fs.Parse(args)
	if *dataPath == "" || *out == "" {
		return fmt.Errorf("build needs -data and -o")
	}

	g, err := readGraph(*dataPath)
	if err != nil {
		return err
	}
	if err := g.WriteSnapshot(*out); err != nil {
		return err
	}
	man, err := rdf.InspectSnapshot(*out)
	if err != nil {
		return fmt.Errorf("written image fails inspection: %w", err)
	}
	printInfo(man.Info)
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("wdsnap inspect", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect needs exactly one snapshot path")
	}
	man, err := rdf.InspectSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	printInfo(man.Info)
	fmt.Printf("%-12s %12s %12s %10s\n", "section", "offset", "length", "crc")
	for _, s := range man.Sections {
		fmt.Printf("%-12s %12d %12d   %08x\n", s.Name, s.Offset, s.Length, s.CRC)
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("wdsnap verify", flag.ExitOnError)
	modeStr := fs.String("mode", "heap", "loader to verify with: heap | mmap")
	deep := fs.Bool("deep", false, "also rebuild the indexes from the triples and compare")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("verify needs exactly one snapshot path")
	}
	mode, err := rdf.ParseSnapshotMode(*modeStr)
	if err != nil {
		return err
	}
	snap, err := rdf.LoadSnapshot(fs.Arg(0), mode)
	if err != nil {
		return err
	}
	defer snap.Close()
	printInfo(snap.Info())
	if *deep {
		if err := snap.VerifyDeep(); err != nil {
			return err
		}
		fmt.Println("deep verify: indexes match a from-scratch rebuild")
	}
	fmt.Println("ok")
	return nil
}

func printInfo(info rdf.SnapshotInfo) {
	fmt.Printf("%s: v%d frozen, %d triples, %d IRIs, %d bytes, crc %08x",
		info.Path, info.Version, info.Triples, info.IRIs, info.FileSize, info.Checksum)
	if info.Mode != 0 {
		fmt.Printf(", loaded via %s in %s", info.Mode, info.LoadTime.Round(10e3))
	}
	fmt.Println()
}

// readGraph loads -data through the parallel ingest pipeline, the
// same load as wdserve -data.
func readGraph(path string) (*rdf.Graph, error) {
	if path == "-" {
		return ingest.Load(os.Stdin, ingest.Options{})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ingest.Load(f, ingest.Options{})
}

package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// E14 measures the cold-start payoff of persistent snapshots: the wall
// time from "a process with nothing in memory" to "the first query row
// is out", for the three ways a server can come up on the same graph —
// re-parsing the N-Triples text (interning every IRI and rebuilding
// every index), loading the checksummed snapshot image into the heap
// (one read + validation, zero parse), and mmapping the image (no
// copy, but validation still reads every arena, so load cost is linear
// in image size with a smaller constant than the heap path). Row
// counts are cross-checked across all three paths: a snapshot that is
// fast but serves different rows would be worse than useless.

// E14QueryText is the first query of the cold process: the E9/E10
// enumeration workload.
const E14QueryText = E10PatternText

// e14ColdStart measures one cold start: open the graph (by whatever
// path), build an engine, prepare the query, and run it to completion.
// first is the time from cold to the first row on the iterator; rows
// is the full result cardinality (the agreement check).
func e14ColdStart(open func() (*rdf.Graph, io.Closer, error)) (first time.Duration, rows int) {
	t0 := time.Now()
	g, closer, err := open()
	if err != nil {
		panic(err)
	}
	if closer != nil {
		defer closer.Close()
	}
	eng := wdsparql.NewEngine(g, wdsparql.WithQueryCache(4))
	q, err := eng.PrepareText(E14QueryText)
	if err != nil {
		panic(err)
	}
	for range q.Rows(context.Background()) {
		if rows == 0 {
			first = time.Since(t0)
		}
		rows++
	}
	return first, rows
}

// E14SnapshotColdStart builds the experiment table: per graph size, the
// N-Triples file and the snapshot image are written to disk, then each
// startup path is timed cold-to-first-row. The final column checks that
// all three paths enumerate the same number of rows.
func E14SnapshotColdStart(ns []int) *Table {
	t := &Table{
		ID:    "E14",
		Title: "snapshot cold start: time to first query row, parse vs heap load vs mmap",
		Claim: "a checksummed image loads with no parse (linear in image size, small constant); re-parsing pays per interned triple; same rows either way",
		Header: []string{"n", "|G|", "nt(KB)", "snap(KB)", "parse", "snap(heap)",
			"snap(mmap)", "speedup", "rows", "agree"},
	}
	dir, err := os.MkdirTemp("", "wdsparql-e14-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	for _, n := range ns {
		g := rdf.GraphFromTriples(E9Data(n).Triples())
		ntPath := filepath.Join(dir, fmt.Sprintf("g%d.nt", n))
		snapPath := filepath.Join(dir, fmt.Sprintf("g%d.wdsnap", n))
		f, err := os.Create(ntPath)
		if err != nil {
			panic(err)
		}
		if err := rdf.WriteGraph(f, g); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		if err := g.WriteSnapshot(snapPath); err != nil {
			panic(err)
		}
		ntSize := fileSize(ntPath)
		snapSize := fileSize(snapPath)

		dParse, rowsParse := e14ColdStart(func() (*rdf.Graph, io.Closer, error) {
			f, err := os.Open(ntPath)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			g, err := rdf.ReadGraph(f)
			return g, nil, err
		})
		dHeap, rowsHeap := e14ColdStart(func() (*rdf.Graph, io.Closer, error) {
			snap, err := rdf.LoadSnapshot(snapPath, rdf.SnapshotHeap)
			if err != nil {
				return nil, nil, err
			}
			return snap.Graph(), snap, nil
		})
		dMmap, rowsMmap := e14ColdStart(func() (*rdf.Graph, io.Closer, error) {
			snap, err := rdf.LoadSnapshot(snapPath, rdf.SnapshotMmap)
			if err != nil {
				return nil, nil, err
			}
			return snap.Graph(), snap, nil
		})

		agree := rowsParse > 0 && rowsParse == rowsHeap && rowsParse == rowsMmap
		speedup := "-"
		if dMmap > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(dParse)/float64(dMmap))
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(g.Len()),
			fmt.Sprint(ntSize/1024), fmt.Sprint(snapSize/1024),
			ms(dParse), ms(dHeap), ms(dMmap), speedup,
			fmt.Sprint(rowsParse), fmt.Sprint(agree))
	}
	return t
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	return fi.Size()
}

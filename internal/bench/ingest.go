package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"wdsparql"
	"wdsparql/internal/ingest"
	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// E15 measures the two halves of the live-data path. Ingest: the
// parallel streaming pipeline (chunk → decode pool → in-order merge)
// against the sequential reader on the same N-Triples bytes — the
// pipeline must be faster AND byte-identical (same dictionary IDs,
// same enumeration stream). Overlay: the enumeration cost of serving with the last
// tenth of the graph in the mutable delta overlay versus fully frozen,
// and again after Refreeze — the price of accepting live writes, and
// what sealing them into a CSR delta tier (the base is not rebuilt at
// a tenth of its size) wins back. The agree column
// spans all of it: parallel==sequential streams, and identical row
// counts frozen vs overlay vs refrozen.

// E15QueryText is the enumeration workload for the overlay columns:
// the E9/E10 shape, so results compare across experiment tables.
const E15QueryText = E10PatternText

// E15Ingest builds the experiment table over graph sizes ns with the
// given decode-pool width (≤ 0: GOMAXPROCS).
func E15Ingest(ns []int, workers int) *Table {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID:    "E15",
		Title: fmt.Sprintf("parallel ingest (%d workers) + live delta overlay vs frozen", workers),
		Claim: "the pipeline is sequential-equivalent but parallel; the overlay trades bounded read overhead for live writes, and re-freeze seals it into a CSR delta tier beside the base",
		Header: []string{"n", "|G|", "nt(KB)", "parse", "ingest", "speedup",
			"enum", "enum(ovl)", "enum(refroze)", "rows", "agree"},
	}
	ctx := context.Background()
	for _, n := range ns {
		ts := E9Data(n).Triples()
		var buf bytes.Buffer
		if err := rdf.WriteGraph(&buf, rdf.GraphFromTriples(ts)); err != nil {
			panic(err)
		}
		data := buf.Bytes()

		var seq, par *rdf.Graph
		var err error
		dParse := timed(func() { seq, err = rdf.ReadGraph(bytes.NewReader(data)) })
		if err != nil {
			panic(err)
		}
		dIngest := timed(func() {
			par, err = ingest.Load(bytes.NewReader(data), ingest.Options{Workers: workers})
		})
		if err != nil {
			panic(err)
		}
		streamsOK := backendtest.EqualStreams(seq, par)

		// Overlay: the same graph with its last tenth applied as live
		// deltas, enumerated by the same prepared query.
		cut := len(ts) - len(ts)/10
		frozen := wdsparql.NewEngine(par)
		overlay := wdsparql.NewEngine(rdf.GraphFromTriples(ts[:cut])).ApplyDelta(ts[cut:])
		count := func(e *wdsparql.Engine) (rows int, err error) {
			q, err := e.PrepareText(E15QueryText)
			if err != nil {
				return 0, err
			}
			return q.Count(ctx)
		}
		var rowsF, rowsO, rowsR int
		dEnumF := timed(func() { rowsF, err = count(frozen) })
		if err != nil {
			panic(err)
		}
		dEnumO := timed(func() { rowsO, err = count(overlay) })
		if err != nil {
			panic(err)
		}
		refrozen := overlay.Refreeze()
		dEnumR := timed(func() { rowsR, err = count(refrozen) })
		if err != nil {
			panic(err)
		}

		agree := streamsOK && refrozen.OverlayLen() == 0 &&
			rowsF > 0 && rowsF == rowsO && rowsF == rowsR
		speedup := "-"
		if dIngest > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(dParse)/float64(dIngest))
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(seq.Len()), fmt.Sprint(len(data)/1024),
			ms(dParse), ms(dIngest), speedup,
			ms(dEnumF), ms(dEnumO), ms(dEnumR),
			fmt.Sprint(rowsF), fmt.Sprint(agree))
	}
	return t
}

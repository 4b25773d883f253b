package wdsparql

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// Decoded answers are the caller's: a Mapping from Select or All read
// off a mapped snapshot stays valid after Snapshot.Close, because the
// mapped dictionary hands out heap copies (rdf.Dict.StringOf).

// writeNamedSnapshot writes a snapshot of n triples "<prefix>i p
// <prefix>o i" and returns its path.
func writeNamedSnapshot(t testing.TB, dir, prefix string, n int) string {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.Add(Triple{S: IRI(fmt.Sprintf("%s%d", prefix, i)), P: IRI("p"), O: IRI(fmt.Sprintf("%so%d", prefix, i))})
	}
	path := filepath.Join(dir, prefix+".wdsnap")
	if err := g.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSelectRowsOutliveSnapshot runs outliveChild in a child process:
// reading a string that still aliased an unmapped image faults there
// (SIGSEGV, which recover cannot catch) or, once a second image has
// taken the range, reads that image's bytes — either way the child
// fails, and the parent reports its output.
func TestSelectRowsOutliveSnapshot(t *testing.T) {
	if dir := os.Getenv("WDSPARQL_OUTLIVE_DIR"); dir != "" {
		outliveChild(t, dir)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSelectRowsOutliveSnapshot$", "-test.count=1")
	cmd.Env = append(os.Environ(), "WDSPARQL_OUTLIVE_DIR="+t.TempDir())
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the child reading rows after Close failed: %v\n%s", err, out)
	}
}

// outliveChild keeps Select's rows across Close, maps a second image of
// the same size, then reads the rows.
func outliveChild(t *testing.T, dir string) {
	const n = 2000
	first, second := writeNamedSnapshot(t, dir, "alpha", n), writeNamedSnapshot(t, dir, "omega", n)
	eng, snap, err := NewEngineFromSnapshot(first, SnapshotMmap)
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.PrepareText(`(?s p ?o)`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Mapping
	for mu := range q.Select(context.Background()) {
		rows = append(rows, mu)
	}
	all, err := q.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	eng, q = nil, nil
	runtime.GC()
	other, err := LoadSnapshot(second, SnapshotMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if len(rows) != n || all.Len() != n {
		t.Fatalf("%d rows, %d in All, want %d", len(rows), all.Len(), n)
	}
	for _, mu := range append(rows, all.Slice()...) {
		var i int
		if _, err := fmt.Sscanf(mu["s"], "alpha%d", &i); err != nil || mu["o"] != fmt.Sprintf("alphao%d", i) {
			t.Fatalf("row read after Close: %v", mu)
		}
	}
}

// Decoding off a mapped image copies each bound value once: draining
// Select over n rows of two bound values costs the Mapping plus the two
// strings per row, and nothing that grows with the image.
func TestSelectMmapDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 1000
	eng, snap, err := NewEngineFromSnapshot(writeNamedSnapshot(t, t.TempDir(), "m", n), SnapshotMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	q, err := eng.PrepareText(`(?s p ?o)`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	drain := func() {
		for range q.Select(ctx) {
		}
	}
	drain()
	perRow := testing.AllocsPerRun(5, drain) / n
	t.Logf("Select on an mmap engine allocates %.2f objects per row", perRow)
	if perRow > 4.1 {
		t.Fatalf("Select on an mmap engine allocates %.2f objects per row, want ≤ 4 (the Mapping and its two copied values)", perRow)
	}
}

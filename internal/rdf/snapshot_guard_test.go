//go:build unix && mmapguard

package rdf

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// In the mmapguard build a touch of a closed image faults at once: the
// child keeps a dictionary string that aliases the mapping, closes the
// snapshot, maps the same image again (without the guard the kernel
// may hand out the freed range, and the read would "succeed" on the
// new mapping) and reads the string, which must kill it with a fault.
func TestGuardFaultsAfterClose(t *testing.T) {
	if path := os.Getenv("WDSPARQL_GUARD_IMAGE"); path != "" {
		snap, err := LoadSnapshot(path, SnapshotMmap)
		if err != nil {
			t.Fatal(err)
		}
		s := snap.Graph().Dict().StringRef(0)
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := LoadSnapshot(path, SnapshotMmap)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		fmt.Println("read after Close:", s)
		return
	}
	path := filepath.Join(t.TempDir(), "guard.wdsnap")
	if err := GraphFromTriples([]Triple{T(IRI("a"), IRI("p"), IRI("b"))}).WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGuardFaultsAfterClose$", "-test.count=1")
	cmd.Env = append(os.Environ(), "WDSPARQL_GUARD_IMAGE="+path)
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "fault") {
		t.Fatalf("the child read a closed image without faulting (%v):\n%s", err, out)
	}
}

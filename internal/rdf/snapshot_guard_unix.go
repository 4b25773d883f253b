//go:build unix && mmapguard

package rdf

import "syscall"

// munmapFile, in the mmapguard build, does not release a mapping
// returned by mmapFile: it re-protects the range PROT_NONE, so the
// address range is never reused and any touch after Snapshot.Close —
// a string, arena or decoded row still aliasing the image — faults at
// once instead of reading whatever a later mapping put there. The
// range stays reserved for the life of the process: a test and
// debugging build, not a serving one.
//
//	go test -race -tags mmapguard ./internal/rdf
func munmapFile(b []byte) error {
	return syscall.Mprotect(b, syscall.PROT_NONE)
}

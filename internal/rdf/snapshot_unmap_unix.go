//go:build unix && !mmapguard

package rdf

import "syscall"

// munmapFile releases a mapping returned by mmapFile. Build with the
// mmapguard tag to keep the range reserved instead (snapshot_guard_unix.go).
func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}

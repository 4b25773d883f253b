//go:build unix

package rdf

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the file at path read-only. The mapping is shared
// (PROT_READ, MAP_SHARED): every process serving the same snapshot
// shares one copy of the page cache, which is the replica-fan-out
// story of the snapshot design. The caller owns the mapping and must
// release it with munmapFile.
func mmapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("file is empty: not a snapshot")
	}
	if size > int64(maxInt) {
		return nil, fmt.Errorf("file is %d bytes, beyond this platform's address space", size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	return b, nil
}

//go:build unix

package store

import (
	"os"
	"runtime"
	"syscall"
)

const mmapSupported = true

// mappedFile owns one read-only file mapping. Everything parsed out of a
// mapped v3 snapshot (graph columns, postings, lazy decoders) holds a
// reference to it, and the mapping is released by a finalizer once the
// last of them is collected — there is no explicit Close to misuse while
// slices into the mapping are still live. No string aliases the mapping:
// provgraph.FromFrozen copies the symbol section to the heap, so labels
// and module names that escape into query results stay valid after the
// snapshot is dropped. Slices into the mapping (Graph.Out/In, postings)
// are valid only while their graph or snapshot is reachable.
type mappedFile struct {
	data []byte
}

func mapFile(f *os.File, size int64) (*mappedFile, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	mf := &mappedFile{data: data}
	runtime.SetFinalizer(mf, func(m *mappedFile) { _ = syscall.Munmap(m.data) })
	return mf, nil
}

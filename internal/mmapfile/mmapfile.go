// Package mmapfile memory-maps files read-only, with a transparent
// read fallback for platforms (or builds) without mmap support.
//
// The package exists for the serving path: a decoded synopsis's float
// tables alias its container's bytes (see internal/codec), so a mapped
// file backs the summed-area tables (grid.SAT, behind grid.Prefix)
// directly, and loading a multi-gigabyte
// shard file costs address space instead of heap, and the page cache —
// shared across processes, evictable under pressure — holds the float
// payload. Callers treat the two modes identically: Data returns the
// complete file image either way, and Mapped reports which mode was
// taken so metrics can distinguish them.
//
// The fallback is selected at build time, not probed at run time: the
// dpgrid_nommap build tag forces it anywhere (CI exercises that build),
// and platforms without the syscall surface get it automatically.
package mmapfile

import "sync"

// File is a read-only file image, either memory-mapped or read into
// heap memory. The image is immutable: mutating Data's bytes is
// undefined (and faults outright in mapped mode, where the pages are
// PROT_READ).
type File struct {
	mu     sync.Mutex
	data   []byte
	mapped bool
	closed bool
}

// Open returns the complete image of the named file, memory-mapped when
// the platform supports it (empty files are never mapped — a
// zero-length mmap is an error on Linux — and fall back to a read).
func Open(path string) (*File, error) {
	data, mapped, err := open(path)
	if err != nil {
		return nil, err
	}
	return &File{data: data, mapped: mapped}, nil
}

// Data returns the file image. The slice is only valid until Close;
// after Close it is nil. Callers that hand the bytes to long-lived
// structures (decoded synopses, whose tables alias them) must keep the
// File alive and unclosed for as long as those structures serve.
func (f *File) Data() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.data
}

// Mapped reports whether the image is memory-mapped (as opposed to read
// into heap memory by the fallback path).
func (f *File) Mapped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mapped
}

// Len returns the image size in bytes, or 0 after Close.
func (f *File) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.data)
}

// Close releases the image — unmapping it in mapped mode, dropping the
// heap reference otherwise. Close is idempotent. After Close, Data
// returns nil; any still-outstanding reference to the previously
// returned slice faults in mapped mode, which is why owners (e.g.
// dpgrid.MappedSynopsis) gate queries on their own closed state before
// touching the bytes.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	data := f.data
	f.data = nil
	if !f.mapped {
		return nil
	}
	f.mapped = false
	return unmap(data)
}

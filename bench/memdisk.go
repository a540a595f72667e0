package main

import (
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	"repro/internal/sut/memengine"
)

// memDiskBackend is the sut driver of the recovery campaigns: memengine,
// with the pager's page file and WAL kept in memory instead of in a
// temporary directory. The pager, its WAL, checkpoints and the simulated
// crash run unchanged; only the host's write and fsync calls are gone.
// Waiting for those was close to half of a recovery database's time on
// disk, and how long it takes depends on the host's disk and whoever else
// uses it, not on this program.
const memDiskBackend = "bench-memdisk"

func init() {
	sut.Register(memDiskBackend, memDiskDriver{})
}

type memDiskDriver struct{}

// Open implements sut.Driver. Storage other than "pager" is memengine's.
func (memDiskDriver) Open(s sut.Session) (sut.DB, error) {
	if s.Storage != "pager" {
		return sut.Open("memengine", s)
	}
	var opts []engine.Option
	if s.Faults != nil {
		opts = append(opts, engine.WithFaults(s.Faults))
	}
	if s.NoPlanner {
		opts = append(opts, engine.WithoutPlanner())
	}
	if s.NoCompile {
		opts = append(opts, engine.WithoutCompiledEval())
	}
	if s.NoHashJoin {
		opts = append(opts, engine.WithoutHashJoin())
	}
	if s.NoHashAgg {
		opts = append(opts, engine.WithoutHashAgg())
	}
	e, err := engine.OpenDurable(s.Dialect, pager.NewSim(&memDisk{files: map[string]*memFile{}}), "db", opts...)
	if err != nil {
		return nil, err
	}
	return memengine.Wrap(e, s), nil
}

// memDisk is a pager.VFS whose files are byte slices. What a file holds
// is what was written to it: the SimVFS above it decides what a crash
// keeps, as it does over real files.
type memDisk struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// Open implements pager.VFS, creating the file if it does not exist.
func (d *memDisk) Open(path string) (pager.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[path]
	if f == nil {
		f = &memFile{}
		d.files[path] = f
	}
	return f, nil
}

// Remove implements pager.VFS.
func (d *memDisk) Remove(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, path)
	return nil
}

type memFile struct {
	mu  sync.Mutex
	buf []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.buf)) {
		f.buf = append(f.buf, make([]byte, end-int64(len(f.buf)))...)
	}
	return copy(f.buf[off:], p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size <= int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else {
		f.buf = append(f.buf, make([]byte, size-int64(len(f.buf)))...)
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.buf)), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

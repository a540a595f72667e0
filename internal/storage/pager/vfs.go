package pager

import (
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/xerr"
)

// File is the pager's view of one backing file. It is the minimal surface
// the page and WAL layers need: positioned reads and writes, truncation,
// durability (Sync), and size.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
	Close() error
}

// VFS opens and removes backing files. Two implementations ship: OS()
// returns the real filesystem, and NewSim wraps any VFS with a volatile
// write cache whose loss on a simulated power cut is deterministic — the
// substrate of the crash-point fault-injection harness.
type VFS interface {
	Open(path string) (File, error)
	Remove(path string) error
}

// osVFS is the real filesystem.
type osVFS struct{}

// OS returns the real-filesystem VFS.
func OS() VFS { return osVFS{} }

func (osVFS) Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, xerr.New(xerr.CodeIO, "pager: open %s: %v", path, err)
	}
	return osFile{f}, nil
}

func (osVFS) Remove(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return xerr.New(xerr.CodeIO, "pager: remove %s: %v", path, err)
	}
	return nil
}

type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// CrashMode selects what happens to the unsynced write tail at a
// simulated power cut.
type CrashMode uint8

// Crash modes.
const (
	// LostTail drops every unsynced write: the clean power-cut model.
	LostTail CrashMode = iota
	// Torn persists a prefix (Frac) of the unsynced bytes, in write
	// order, cutting the final write mid-way — the torn-page model.
	Torn
	// BitFlip persists a prefix like Torn and additionally flips one bit
	// inside the persisted tail — the corrupted-sector model.
	BitFlip
)

// String names the mode (used in serialized crash plans).
func (m CrashMode) String() string {
	switch m {
	case LostTail:
		return "losttail"
	case Torn:
		return "torn"
	case BitFlip:
		return "bitflip"
	default:
		return "mode?"
	}
}

// SimVFS overlays a volatile write cache on a base VFS: writes land in
// memory, Sync flushes them to the base file and fsyncs, and Crash
// resolves the unsynced tail per a CrashMode — deterministically, so a
// crash schedule derived from a campaign seed replays byte-identically.
// Real files sit underneath; only the power-cut semantics are simulated.
type SimVFS struct {
	base VFS

	mu    sync.Mutex
	files map[string]*simFile
}

// NewSim wraps base with the volatile-cache crash simulation.
func NewSim(base VFS) *SimVFS {
	return &SimVFS{base: base, files: map[string]*simFile{}}
}

// Open implements VFS. Reopening a path returns a fresh handle over the
// same base file; unsynced writes never survive a close (the pager always
// syncs before a graceful close, so nothing is lost on the benign path).
// The fresh handle takes over the closed handle's memory, so a
// crash-and-reopen cycle reuses its buffers.
func (s *SimVFS) Open(path string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, reopen := s.files[path]
	if reopen && !old.closed {
		return old, nil
	}
	bf, err := s.base.Open(path)
	if err != nil {
		return nil, err
	}
	f := &simFile{base: bf}
	if reopen {
		old.handOver(f)
	}
	size, err := bf.Size()
	if err != nil {
		bf.Close()
		return nil, xerr.New(xerr.CodeIO, "pager: size %s: %v", path, err)
	}
	f.buf = extend(f.buf, size)
	if size > 0 {
		if _, err := bf.ReadAt(f.buf, 0); err != nil && err != io.EOF {
			bf.Close()
			return nil, xerr.New(xerr.CodeIO, "pager: read %s: %v", path, err)
		}
	}
	s.files[path] = f
	return f, nil
}

// extend lengthens buf to n bytes, in its own capacity when that
// suffices, and zeroes the new bytes (a reused capacity holds stale ones).
func extend(buf []byte, n int64) []byte {
	old := len(buf)
	buf = slices.Grow(buf, int(n)-old)[:n]
	clear(buf[old:])
	return buf
}

// Remove implements VFS.
func (s *SimVFS) Remove(path string) error {
	s.mu.Lock()
	if f, ok := s.files[path]; ok {
		if !f.closed {
			f.base.Close()
			f.closed = true
		}
		delete(s.files, path)
	}
	s.mu.Unlock()
	return s.base.Remove(path)
}

// Crash simulates a power cut across every open file: each file's
// unsynced write tail is resolved per mode (see CrashMode), the result is
// forced to the base file, and the volatile cache is discarded. frac is
// the salvaged fraction of unsynced bytes for Torn/BitFlip; bitOff picks
// the flipped bit for BitFlip. Files stay usable afterwards — reads see
// exactly the post-crash durable content.
func (s *SimVFS) Crash(mode CrashMode, frac float64, bitOff int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.files {
		if !f.closed {
			f.crash(mode, frac, bitOff)
		}
	}
}

// writeOp is one unsynced mutation, in order. size < 0 marks a truncate
// to -size-1 bytes (so truncate-to-zero is representable).
type writeOp struct {
	off  int64
	size int64
}

// simFile is one file under crash simulation: buf is the logical content
// (base content plus unsynced writes), ops the unsynced mutations in
// order. Sync applies ops to the base file and fsyncs.
type simFile struct {
	mu     sync.Mutex
	base   File
	buf    []byte
	ops    []writeOp
	closed bool

	segs []writeOp // crash's scratch: the salvaged segments in write order
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
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

func (f *simFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.buf)) {
		f.buf = extend(f.buf, end)
	}
	copy(f.buf[off:], p)
	f.ops = append(f.ops, writeOp{off: off, size: int64(len(p))})
	return len(p), nil
}

func (f *simFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else if size > int64(len(f.buf)) {
		f.buf = extend(f.buf, size)
	}
	f.ops = append(f.ops, writeOp{off: size, size: -size - 1})
	return nil
}

func (f *simFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.buf)), nil
}

// Sync flushes the unsynced tail to the base file and fsyncs it.
func (f *simFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLocked()
}

func (f *simFile) flushLocked() error {
	for _, op := range f.ops {
		if err := f.applyOp(op, int64(len(f.buf))); err != nil {
			return err
		}
	}
	f.ops = f.ops[:0]
	if err := f.base.Sync(); err != nil {
		return xerr.New(xerr.CodeIO, "pager: fsync: %v", err)
	}
	return nil
}

// applyOp replays one buffered mutation onto the base file. limit bounds
// reads from buf (the op may describe bytes later overwritten; buf holds
// the final content, which is what a replay in order converges to).
func (f *simFile) applyOp(op writeOp, limit int64) error {
	if op.size < 0 {
		if err := f.base.Truncate(-op.size - 1); err != nil {
			return xerr.New(xerr.CodeIO, "pager: truncate: %v", err)
		}
		return nil
	}
	end := op.off + op.size
	if end > limit {
		end = limit
	}
	if end <= op.off {
		return nil
	}
	if _, err := f.base.WriteAt(f.buf[op.off:end], op.off); err != nil {
		return xerr.New(xerr.CodeIO, "pager: write: %v", err)
	}
	return nil
}

// Close flushes and closes the base file (the graceful path; the pager
// syncs before closing, so this flush is normally a no-op).
func (f *simFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.flushLocked()
	if cerr := f.base.Close(); err == nil {
		err = cerr
	}
	return err
}

// handOver gives a closed file's memory to the handle that replaces it:
// the buffers, emptied, with their capacity.
func (f *simFile) handOver(to *simFile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	to.buf, to.ops, to.segs = f.buf[:0], f.ops[:0], f.segs[:0]
	f.buf, f.ops, f.segs = nil, nil, nil
}

// crash resolves the unsynced tail per mode and makes the result the
// durable content.
func (f *simFile) crash(mode CrashMode, frac float64, bitOff int) {
	f.mu.Lock()
	defer f.mu.Unlock()

	var salvage int64 // unsynced bytes that survive, in write order
	if mode == Torn || mode == BitFlip {
		var total int64
		for _, op := range f.ops {
			if op.size > 0 {
				total += op.size
			}
		}
		salvage = int64(frac * float64(total))
	}

	// Rebuild durable content: base file as-is, plus the salvaged prefix
	// of the unsynced ops. A partially-salvaged write persists its prefix
	// (the torn write). segs records where each salvaged byte sits in the
	// file, so the bit flip below lands on one of them.
	segs := f.segs[:0]
	for _, op := range f.ops {
		if op.size < 0 {
			if salvage > 0 {
				size := -op.size - 1
				f.base.Truncate(size)
				// Salvaged bytes past the new end are gone from the file.
				kept := segs[:0]
				for _, s := range segs {
					if s.off < size {
						s.size = min(s.size, size-s.off)
						kept = append(kept, s)
					}
				}
				segs = kept
			}
			continue
		}
		if salvage <= 0 {
			break
		}
		n := min(op.size, salvage) // a torn write persists its prefix
		end := op.off + n
		if end > int64(len(f.buf)) {
			end = int64(len(f.buf))
		}
		if end > op.off {
			f.base.WriteAt(f.buf[op.off:end], op.off)
			segs = append(segs, writeOp{off: op.off, size: end - op.off})
		}
		salvage -= n
	}
	if mode == BitFlip {
		var total int64
		for _, s := range segs {
			total += s.size
		}
		if total > 0 {
			// The i-th salvaged byte, counted in write order. Every
			// segment was written from buf, the final content, so buf
			// holds the byte the file holds there.
			i := int64(bitOff/8) % total
			for _, s := range segs {
				if i < s.size {
					b := [1]byte{f.buf[s.off+i] ^ (1 << (bitOff % 8))}
					f.base.WriteAt(b[:], s.off+i)
					break
				}
				i -= s.size
			}
		}
	}
	f.segs = segs
	f.base.Sync()
	f.ops = f.ops[:0]
	// Reload the durable content as the new logical content, into the
	// buffer's own capacity.
	size, err := f.base.Size()
	if err != nil {
		size = 0
	}
	f.buf = extend(f.buf[:0], size)
	if size > 0 {
		f.base.ReadAt(f.buf, 0)
	}
}

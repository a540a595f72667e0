// Package pager is the durable page-based storage backend: a fixed-size
// page file with CRC32-checked page headers, an LRU page cache with
// dirty-page tracking, and a write-ahead log (append → fsync →
// checkpoint) with automatic recovery on open.
//
// The engine layers on top by serializing its committed logical state
// into a byte image per transaction; the pager chunks the image into
// pages, appends only the changed pages to the WAL followed by a commit
// frame, fsyncs, and periodically checkpoints the WAL back into the main
// file. Opening a pager replays the WAL: committed transactions are
// applied in order and the torn tail of an unsynced final transaction is
// discarded by checksum.
//
// Crash-point fault injection is built in at two seams: a SimVFS overlay
// models power cuts over real files (unsynced writes are lost, torn, or
// bit-flipped per a deterministic, seed-replayable CrashPlan), and the
// injectable durability faults from internal/faults deviate the commit
// and recovery protocols (skipped fsync, trusted torn tails, truncated
// replay) for the recovery-equivalence oracle to catch.
package pager

import (
	"bytes"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/xerr"
)

// DefaultCheckpointBytes is the WAL size that triggers a checkpoint.
const DefaultCheckpointBytes = 1 << 20

// Stats counts pager work.
type Stats struct {
	Commits     int
	WalFrames   int
	Checkpoints int
	Recoveries  int // WAL commit frames replayed at Open
	CacheHits   int
	CacheMisses int
}

// Pager is one durable database: a page file, its WAL, and the cache.
// Callers serialize access (the engine holds its own lock).
type Pager struct {
	vfs     VFS
	dbPath  string
	walPath string
	fs      *faults.Set

	dbf, walf File
	cache     *lruCache
	index     map[uint32]int64 // page → latest committed WAL payload offset
	m         meta
	walEnd    int64

	// CheckpointBytes overrides the WAL checkpoint threshold (tests and
	// benchmarks lower it to exercise the checkpoint path).
	CheckpointBytes int64

	armed   *CrashPlan
	closed  bool
	crashed bool

	stats Stats

	// Scratch of Commit, Checkpoint and WAL replay, reused from call to
	// call and never handed out. pages aliases the image only while
	// Commit runs; dirty points into cache-owned page buffers. loaded is
	// the image Load returns.
	loaded   []byte
	metaPage [metaSize]byte
	pages    [][]byte
	dirty    []stagedPage
	page     [PageSize]byte
	frame    [walHdrSize + PageSize]byte
	replay   walReplay
}

// stagedPage is one page a commit changed: its cached bytes and, once
// appended, its payload's WAL offset.
type stagedPage struct {
	no  uint32
	pg  []byte
	off int64
}

// Open opens (or creates) the pager files in dir and recovers from the
// WAL. The injected-fault set deviates the commit/recovery protocol at
// the registered durability-fault sites (nil = sound pager).
func Open(vfs VFS, dir string, fs *faults.Set) (*Pager, error) {
	p := &Pager{
		vfs:             vfs,
		dbPath:          filepath.Join(dir, "db.pg"),
		walPath:         filepath.Join(dir, "db.wal"),
		fs:              fs,
		cache:           newLRU(0),
		index:           map[uint32]int64{},
		CheckpointBytes: DefaultCheckpointBytes,
		closed:          true,
	}
	if err := p.Reopen(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Pager) openFiles() error {
	var err error
	if p.dbf, err = p.vfs.Open(p.dbPath); err != nil {
		return err
	}
	if p.walf, err = p.vfs.Open(p.walPath); err != nil {
		p.dbf.Close()
		return err
	}
	return nil
}

// Reopen brings a pager that died to a simulated power cut, or was
// closed, back in place: it reopens the files and recovers from the WAL,
// keeping the pager's cache buffers, WAL index and scratch. It is the one
// recovery path; Open runs it on a new pager. The work counters restart
// at zero, as a new pager's would; CheckpointBytes is kept. If recovery
// fails the pager stays closed, and dead if it had crashed, with its
// counters restored, until a Reset or another Reopen.
func (p *Pager) Reopen() error {
	if !p.closed {
		return xerr.New(xerr.CodeIO, "pager: reopen of an open database")
	}
	if err := p.openFiles(); err != nil {
		return err
	}
	stats, crashed := p.stats, p.crashed
	p.closed, p.crashed, p.armed = false, false, nil
	p.stats = Stats{}
	if err := p.recover(); err != nil {
		p.dbf.Close()
		p.walf.Close()
		p.closed, p.crashed, p.stats = true, crashed, stats
		return err
	}
	return nil
}

// recover replays the WAL and loads the committed meta page.
func (p *Pager) recover() error {
	commits, end, err := p.replay.run(p.walf, p.fs, p.index)
	if err != nil {
		return xerr.New(xerr.CodeIO, "pager: WAL replay: %v", err)
	}
	p.walEnd = end
	p.stats.Recoveries += commits
	p.cache.reset()

	pg, err := p.readPage(0)
	if err != nil {
		return err
	}
	if pg == nil {
		p.m = meta{} // fresh database
		return nil
	}
	payload, err := p.verify(0, pg)
	if err != nil {
		return err
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return err
	}
	p.m = m
	return nil
}

// verify checks a page checksum — unless the torn-page-accept fault has
// recovery trusting pages blindly.
func (p *Pager) verify(pageNo uint32, pg []byte) ([]byte, error) {
	if p.fs.Has(faults.PagerTornPageAccept) {
		if len(pg) != PageSize {
			return nil, xerr.New(xerr.CodeCorrupt, "pager: page %d is %d bytes", pageNo, len(pg))
		}
		return pg[pageHdrSize:], nil
	}
	return verifyPage(pageNo, pg)
}

// readPage returns the full on-disk bytes of a page — cache, then WAL,
// then base file — or nil if the page does not exist anywhere.
func (p *Pager) readPage(no uint32) ([]byte, error) {
	if pg, ok := p.cache.get(no); ok {
		p.stats.CacheHits++
		return pg, nil
	}
	p.stats.CacheMisses++
	if off, ok := p.index[no]; ok {
		pg := p.cache.insert(no, false)
		if _, err := p.walf.ReadAt(pg, off); err != nil {
			p.cache.drop(no)
			return nil, xerr.New(xerr.CodeIO, "pager: WAL read page %d: %v", no, err)
		}
		return pg, nil
	}
	size, err := p.dbf.Size()
	if err != nil {
		return nil, xerr.New(xerr.CodeIO, "pager: size: %v", err)
	}
	off := int64(no) * PageSize
	if off+PageSize > size {
		return nil, nil
	}
	pg := p.cache.insert(no, false)
	if _, err := p.dbf.ReadAt(pg, off); err != nil {
		p.cache.drop(no)
		return nil, xerr.New(xerr.CodeIO, "pager: read page %d: %v", no, err)
	}
	return pg, nil
}

// Load reconstructs the committed database image (nil for a fresh
// database). Page checksums are verified on the way. The image is
// assembled in a buffer the pager reuses: it stays valid until the next
// Load.
func (p *Pager) Load() ([]byte, error) {
	if err := p.live(); err != nil {
		return nil, err
	}
	if p.m.pageCount == 0 {
		return nil, nil
	}
	// No presizing from imageLen: a meta page accepted without its
	// checksum (torn-page-accept) can claim any length, and the check
	// after the loop reports a short image as corrupt.
	img := p.loaded[:0]
	for n := uint32(1); n <= p.m.pageCount; n++ {
		pg, err := p.readPage(n)
		if err != nil {
			return nil, err
		}
		if pg == nil {
			return nil, xerr.New(xerr.CodeCorrupt, "pager: page %d missing", n)
		}
		payload, err := p.verify(n, pg)
		if err != nil {
			return nil, err
		}
		img = append(img, payload...)
	}
	p.loaded = img
	if uint64(len(img)) < p.m.imageLen {
		return nil, xerr.New(xerr.CodeCorrupt, "pager: image truncated: %d of %d bytes", len(img), p.m.imageLen)
	}
	return img[:p.m.imageLen], nil
}

// Commit makes image the new durably-committed database state: changed
// pages are appended to the WAL, a commit frame seals the transaction,
// and the log is fsynced (WAL append → fsync → checkpoint). An armed
// BeforeSync crash plan cuts power between the append and the fsync.
//
// Commit does not keep image after it returns, so the caller may reuse
// it. A changed page is written into the buffer the cache already holds
// for it; once warm, a commit allocates nothing.
func (p *Pager) Commit(image []byte) error {
	if err := p.live(); err != nil {
		return err
	}
	gen := p.m.gen + 1
	p.metaPage = encodeMeta(meta{pageCount: uint32(pageCount(len(image))), imageLen: uint64(len(image)), gen: gen})
	p.pages = paginate(p.pages, p.metaPage[:], image)
	defer clear(p.pages) // the payloads alias image

	p.dirty = p.dirty[:0]
	for n, payload := range p.pages {
		no := uint32(n)
		enc := encodePage(p.page[:], no, payload)
		cur, err := p.readPage(no)
		if err != nil {
			return err
		}
		if cur != nil && bytes.Equal(cur, enc) {
			continue
		}
		if cur == nil {
			cur = p.cache.insert(no, true)
		} else {
			p.cache.setDirty(no, true)
		}
		copy(cur, enc)
		p.dirty = append(p.dirty, stagedPage{no: no, pg: cur})
	}

	// WAL append: one frame per dirty page, then the commit frame.
	off := p.walEnd
	var err error
	for i := range p.dirty {
		s := &p.dirty[i]
		s.off = off + walHdrSize
		if off, err = appendFrame(p.walf, p.frame[:], off, s.no, 0, gen, s.pg); err != nil {
			return xerr.New(xerr.CodeIO, "pager: WAL append: %v", err)
		}
		p.stats.WalFrames++
	}
	if off, err = appendFrame(p.walf, p.frame[:], off, commitMark, flagCommit, gen, nil); err != nil {
		return xerr.New(xerr.CodeIO, "pager: WAL commit frame: %v", err)
	}
	p.stats.WalFrames++

	// Crash point: between the WAL append and the fsync.
	if p.armed != nil && p.armed.Point == BeforeSync {
		plan := *p.armed
		p.armed = nil
		p.crashNow(plan)
		return xerr.New(xerr.CodeIO, "pager: simulated power loss during commit")
	}

	// pager.wal-lost-flush: report the commit durable without fsyncing.
	if !p.fs.Has(faults.PagerLostFlush) {
		if err := p.walf.Sync(); err != nil {
			return xerr.New(xerr.CodeIO, "pager: WAL fsync: %v", err)
		}
	}

	for _, s := range p.dirty {
		p.index[s.no] = s.off
		p.cache.setDirty(s.no, false)
	}
	p.walEnd = off
	p.m = meta{pageCount: uint32(len(p.pages) - 1), imageLen: uint64(len(image)), gen: gen}
	p.stats.Commits++

	if p.walEnd >= p.CheckpointBytes {
		return p.Checkpoint()
	}
	return nil
}

// Checkpoint copies the latest committed page images from the WAL into
// the main file, fsyncs it, and truncates the WAL.
func (p *Pager) Checkpoint() error {
	if err := p.live(); err != nil {
		return err
	}
	pg := p.page[:]
	for no, off := range p.index {
		if _, err := p.walf.ReadAt(pg, off); err != nil {
			return xerr.New(xerr.CodeIO, "pager: checkpoint read: %v", err)
		}
		if _, err := p.dbf.WriteAt(pg, int64(no)*PageSize); err != nil {
			return xerr.New(xerr.CodeIO, "pager: checkpoint write: %v", err)
		}
	}
	if err := p.dbf.Sync(); err != nil {
		return xerr.New(xerr.CodeIO, "pager: db fsync: %v", err)
	}
	if err := p.walf.Truncate(0); err != nil {
		return xerr.New(xerr.CodeIO, "pager: WAL truncate: %v", err)
	}
	if err := p.walf.Sync(); err != nil {
		return xerr.New(xerr.CodeIO, "pager: WAL fsync: %v", err)
	}
	clear(p.index)
	p.walEnd = 0
	p.stats.Checkpoints++
	return nil
}

// Arm schedules a BeforeSync crash inside the next commit. AfterSync
// plans need no arming — trigger them with Crash directly.
func (p *Pager) Arm(plan CrashPlan) { p.armed = &plan }

// Disarm cancels an armed crash that never fired.
func (p *Pager) Disarm() { p.armed = nil }

// Crash simulates a power cut now: the unsynced write tail is resolved
// per the plan's mode and the pager goes dead (every later call fails
// with CodeIO) until Reopen, or a new Open, recovers from the surviving
// files.
// Idempotent — a pager already dead from an armed mid-commit crash stays
// as it fell.
func (p *Pager) Crash(plan CrashPlan) {
	if p.closed {
		return
	}
	p.crashNow(plan)
}

func (p *Pager) crashNow(plan CrashPlan) {
	if sim, ok := p.vfs.(*SimVFS); ok {
		sim.Crash(plan.Mode, plan.Frac, plan.BitOffset)
	}
	p.dbf.Close()
	p.walf.Close()
	p.closed = true
	p.crashed = true
}

// Reset restores a pristine empty database: both files truncated, cache
// and WAL index cleared. It revives a crashed pager (pooled engine
// lifecycles reset between databases).
func (p *Pager) Reset() error {
	if p.closed {
		if err := p.openFiles(); err != nil {
			return err
		}
		p.closed, p.crashed = false, false
	}
	if err := p.dbf.Truncate(0); err != nil {
		return xerr.New(xerr.CodeIO, "pager: reset: %v", err)
	}
	if err := p.dbf.Sync(); err != nil {
		return xerr.New(xerr.CodeIO, "pager: reset: %v", err)
	}
	if err := p.walf.Truncate(0); err != nil {
		return xerr.New(xerr.CodeIO, "pager: reset: %v", err)
	}
	if err := p.walf.Sync(); err != nil {
		return xerr.New(xerr.CodeIO, "pager: reset: %v", err)
	}
	clear(p.index)
	p.cache.reset()
	p.m = meta{}
	p.walEnd = 0
	p.armed = nil
	return nil
}

// Close checkpoints and closes the files, leaving them on disk for a
// later Open.
func (p *Pager) Close() error {
	if p.closed {
		return nil
	}
	err := p.Checkpoint()
	if cerr := p.dbf.Close(); err == nil {
		err = cerr
	}
	if cerr := p.walf.Close(); err == nil {
		err = cerr
	}
	p.closed = true
	return err
}

// Stats returns the work counters.
func (p *Pager) Stats() Stats { return p.stats }

// Crashed reports whether the pager died to a simulated power cut.
func (p *Pager) Crashed() bool { return p.crashed }

// CanCrash reports whether the VFS supports simulated power cuts.
func (p *Pager) CanCrash() bool {
	_, ok := p.vfs.(*SimVFS)
	return ok
}

func (p *Pager) live() error {
	if p.crashed {
		return xerr.New(xerr.CodeIO, "pager: database is dead after simulated crash")
	}
	if p.closed {
		return xerr.New(xerr.CodeIO, "pager: database is closed")
	}
	return nil
}

package pager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/xerr"
)

// image builds a deterministic test image of n bytes.
func image(n int, seed byte) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i)*7 + seed
	}
	return img
}

func mustOpen(t *testing.T, vfs VFS, dir string, fs *faults.Set) *Pager {
	t.Helper()
	p, err := Open(vfs, dir, fs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return p
}

func mustCommit(t *testing.T, p *Pager, img []byte) {
	t.Helper()
	if err := p.Commit(img); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func mustLoad(t *testing.T, p *Pager) []byte {
	t.Helper()
	img, err := p.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return img
}

func TestCommitLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	defer p.Close()

	// Sizes straddle page boundaries: sub-page, exact multiple, spill.
	for i, n := range []int{100, PagePayload, PagePayload * 3, PagePayload*2 + 17} {
		img := image(n, byte(i))
		mustCommit(t, p, img)
		if got := mustLoad(t, p); !bytes.Equal(got, img) {
			t.Fatalf("size %d: loaded image differs from committed", n)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh pager over the same directory sees the last committed image.
	p2 := mustOpen(t, OS(), dir, nil)
	defer p2.Close()
	want := image(PagePayload*2+17, 3)
	if got := mustLoad(t, p2); !bytes.Equal(got, want) {
		t.Fatal("reopened pager lost the committed image")
	}
}

func TestFreshDatabaseLoadsNil(t *testing.T) {
	p := mustOpen(t, OS(), t.TempDir(), nil)
	defer p.Close()
	if img := mustLoad(t, p); img != nil {
		t.Fatalf("fresh database loaded %d bytes, want nil", len(img))
	}
}

// TestRecoveryFromWAL reopens a directory whose commits live only in the
// WAL (no checkpoint ran) and checks the replay path restores them.
func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	img := image(PagePayload+50, 9)
	mustCommit(t, p, img)
	if p.Stats().Checkpoints != 0 {
		t.Fatal("test premise broken: commit checkpointed early")
	}
	// No Close: simulate an abrupt stop after the fsynced commit. The OS
	// file handles just leak until the test ends.
	p2 := mustOpen(t, OS(), dir, nil)
	defer p2.Close()
	if p2.Stats().Recoveries == 0 {
		t.Fatal("reopen did not replay any WAL commits")
	}
	if got := mustLoad(t, p2); !bytes.Equal(got, img) {
		t.Fatal("WAL replay did not restore the committed image")
	}
}

// TestTornWALTailDiscarded cuts the final commit frame short and checks
// recovery stops at the torn tail, restoring the previous commit.
func TestTornWALTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	first := image(200, 1)
	mustCommit(t, p, first)
	mustCommit(t, p, image(300, 2))
	// Tear the WAL: drop 7 bytes, destroying the second commit frame.
	walPath := filepath.Join(dir, "db.wal")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	p2 := mustOpen(t, OS(), dir, nil)
	defer p2.Close()
	if got := mustLoad(t, p2); !bytes.Equal(got, first) {
		t.Fatal("torn tail not discarded: recovery did not restore the first commit")
	}
}

// TestCorruptPageDetected flips a payload byte in the main file and checks
// the page checksum rejects it.
func TestCorruptPageDetected(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	mustCommit(t, p, image(PagePayload, 4))
	if err := p.Close(); err != nil { // checkpoint into db.pg
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "db.pg")
	f, err := os.OpenFile(dbPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Page 1, somewhere inside the payload.
	if _, err := f.WriteAt([]byte{0xFF}, PageSize+pageHdrSize+100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	p2 := mustOpen(t, OS(), dir, nil)
	defer p2.Close()
	_, err = p2.Load()
	if code, _ := xerr.CodeOf(err); code != xerr.CodeCorrupt {
		t.Fatalf("Load on corrupted page: err=%v, want CodeCorrupt", err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	defer p.Close()
	p.CheckpointBytes = 1 // every commit checkpoints
	img := image(PagePayload*2, 5)
	mustCommit(t, p, img)
	if p.Stats().Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", p.Stats().Checkpoints)
	}
	st, err := os.Stat(filepath.Join(dir, "db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL is %d bytes after checkpoint, want 0", st.Size())
	}
	if got := mustLoad(t, p); !bytes.Equal(got, img) {
		t.Fatal("image lost across checkpoint")
	}
	// And it survives a reopen purely from the main file.
	p.Close()
	p2 := mustOpen(t, OS(), dir, nil)
	defer p2.Close()
	if got := mustLoad(t, p2); !bytes.Equal(got, img) {
		t.Fatal("image lost after checkpoint + reopen")
	}
}

func TestResetWipesFiles(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	defer p.Close()
	mustCommit(t, p, image(500, 6))
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if img := mustLoad(t, p); img != nil {
		t.Fatal("Reset did not wipe the committed image")
	}
	for _, name := range []string{"db.pg", "db.wal"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("%s is %d bytes after Reset, want 0", name, st.Size())
		}
	}
}

func TestLRUEvictionAndDirtyPinning(t *testing.T) {
	c := newLRU(2)
	c.insert(1, false)
	c.insert(2, false)
	c.insert(3, false) // evicts page 1 (LRU)
	if _, ok := c.get(1); ok {
		t.Fatal("page 1 not evicted")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}
	// Recency: touching 2 makes 3 the eviction victim.
	c.get(2)
	c.insert(4, false)
	if _, ok := c.get(3); ok {
		t.Fatal("page 3 not evicted despite being LRU")
	}
	if _, ok := c.get(2); !ok {
		t.Fatal("recently-used page 2 evicted")
	}
	// Dirty pages are pinned: capacity is exceeded rather than losing them.
	c.reset()
	c.insert(10, true)
	c.insert(11, true)
	c.insert(12, true)
	if c.len() != 3 {
		t.Fatalf("cache holds %d pages, want 3 (dirty pages pinned)", c.len())
	}
	for no := uint32(10); no <= 12; no++ {
		if _, ok := c.get(no); !ok {
			t.Fatalf("dirty page %d evicted", no)
		}
	}
	// Cleaning unpins: the next insert can evict again.
	c.setDirty(10, false)
	c.insert(13, false)
	if _, ok := c.get(10); ok {
		t.Fatal("cleaned page 10 not evicted")
	}
}

func TestPagerCacheStats(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil)
	defer p.Close()
	img := image(PagePayload*2, 7)
	mustCommit(t, p, img)
	base := p.Stats()
	mustLoad(t, p) // pages staged by Commit are still cached
	if got := p.Stats().CacheHits; got <= base.CacheHits {
		t.Fatalf("CacheHits = %d after warm Load, want > %d", got, base.CacheHits)
	}
	p.cache.reset()
	miss := p.Stats()
	mustLoad(t, p)
	if got := p.Stats().CacheMisses; got <= miss.CacheMisses {
		t.Fatalf("CacheMisses = %d after cold Load, want > %d", got, miss.CacheMisses)
	}
}

func TestSimVFSCrashModes(t *testing.T) {
	write := func(t *testing.T, f File, data []byte, off int64) {
		t.Helper()
		if _, err := f.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
	}
	read := func(t *testing.T, vfs VFS, path string) []byte {
		t.Helper()
		f, err := vfs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		size, _ := f.Size()
		buf := make([]byte, size)
		if size > 0 {
			f.ReadAt(buf, 0)
		}
		return buf
	}

	t.Run("losttail", func(t *testing.T) {
		dir := t.TempDir()
		sim := NewSim(OS())
		path := filepath.Join(dir, "f")
		f, _ := sim.Open(path)
		write(t, f, bytes.Repeat([]byte{1}, 10), 0)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		write(t, f, bytes.Repeat([]byte{2}, 10), 10) // unsynced
		sim.Crash(LostTail, 0, 0)
		got := read(t, sim, path)
		if !bytes.Equal(got, bytes.Repeat([]byte{1}, 10)) {
			t.Fatalf("after LostTail crash got %d bytes %v, want 10 synced bytes", len(got), got)
		}
	})

	t.Run("torn", func(t *testing.T) {
		dir := t.TempDir()
		sim := NewSim(OS())
		path := filepath.Join(dir, "f")
		f, _ := sim.Open(path)
		write(t, f, bytes.Repeat([]byte{3}, 100), 0) // all unsynced
		sim.Crash(Torn, 0.5, 0)
		got := read(t, sim, path)
		// Half the unsynced bytes survive, in write order: a 50-byte prefix.
		if len(got) != 50 || !bytes.Equal(got, bytes.Repeat([]byte{3}, 50)) {
			t.Fatalf("after Torn 0.5 crash got %d bytes, want 50-byte prefix", len(got))
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		dir := t.TempDir()
		sim := NewSim(OS())
		path := filepath.Join(dir, "f")
		f, _ := sim.Open(path)
		write(t, f, make([]byte, 8), 0) // zeros, unsynced
		sim.Crash(BitFlip, 1.0, 11)     // byte 1, bit 3
		got := read(t, sim, path)
		want := make([]byte, 8)
		want[1] = 1 << 3
		if !bytes.Equal(got, want) {
			t.Fatalf("after BitFlip crash got %v, want %v", got, want)
		}
	})

	// An unsynced truncate shrinks the file under bytes salvaged before
	// it: the flip must land inside the surviving content, never past its
	// end. Each row writes 100 bytes of 1s, truncates to 10 and writes 10
	// bytes of 2s at off; want is the surviving content before the flip.
	t.Run("bitflip-after-shrinking-truncate", func(t *testing.T) {
		ones, twos := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 10)
		for _, tc := range []struct {
			name   string
			off    int64
			frac   float64
			bitOff int
			want   []byte
		}{
			{"whole-tail", 10, 1.0, 200, slices.Concat(ones[:10], twos)},
			// 105 of 110 bytes survive: the second write is torn after 5.
			{"torn-tail", 50, 105.0 / 110, 456, slices.Concat(ones[:10], make([]byte, 40), twos[:5])},
		} {
			sim := NewSim(newMemVFS())
			f, _ := sim.Open("f")
			write(t, f, ones, 0)
			if err := f.Truncate(10); err != nil {
				t.Fatal(err)
			}
			write(t, f, twos, tc.off)
			sim.Crash(BitFlip, tc.frac, tc.bitOff)
			got := read(t, sim, "f")
			if len(got) != len(tc.want) {
				t.Fatalf("%s: after BitFlip crash the file is %d bytes, want %d", tc.name, len(got), len(tc.want))
			}
			flipped := 0
			for i := range got {
				flipped += bits.OnesCount8(got[i] ^ tc.want[i])
			}
			if flipped != 1 {
				t.Fatalf("%s: %d bits differ from the surviving content, want 1: %v", tc.name, flipped, got)
			}
		}
	})

	t.Run("synced-writes-survive-all-modes", func(t *testing.T) {
		for _, mode := range []CrashMode{LostTail, Torn, BitFlip} {
			dir := t.TempDir()
			sim := NewSim(OS())
			path := filepath.Join(dir, "f")
			f, _ := sim.Open(path)
			data := bytes.Repeat([]byte{9}, 64)
			write(t, f, data, 0)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			sim.Crash(mode, 1.0, 5)
			if got := read(t, sim, path); !bytes.Equal(got, data) {
				t.Fatalf("mode %s destroyed synced content", mode)
			}
		}
	})
}

func TestCrashPlanStringParseRoundtrip(t *testing.T) {
	plans := []CrashPlan{
		{},
		{Point: AfterSync, Mode: LostTail},
		{Point: BeforeSync, Mode: Torn, Frac: 0.25, BitOffset: 0},
		{Point: BeforeSync, Mode: BitFlip, Frac: 1.00, BitOffset: 65535},
		{Point: AfterSync, Mode: BitFlip, Frac: 0.75, BitOffset: 42801},
	}
	for _, want := range plans {
		got, err := ParseCrashPlan(want.String())
		if err != nil {
			t.Fatalf("ParseCrashPlan(%q): %v", want.String(), err)
		}
		if got != want {
			t.Fatalf("round trip %q: got %+v, want %+v", want.String(), got, want)
		}
	}
	for _, bad := range []string{"", "aftersync", "nowhere:torn:0.5:0", "aftersync:melt:0.5:0", "aftersync:torn:x:0", "aftersync:torn:0.5:y"} {
		if _, err := ParseCrashPlan(bad); err == nil {
			t.Fatalf("ParseCrashPlan(%q) accepted garbage", bad)
		}
	}
}

// TestRandomPlanDeterministic checks the schedule depends only on the
// random stream — the seed-replayability the oracle's reports rely on.
func TestRandomPlanDeterministic(t *testing.T) {
	mk := func() func(int) int {
		state := int64(12345)
		return func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			v := int(uint64(state)>>33) % n
			return v
		}
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		pa, pb := RandomPlan(a), RandomPlan(b)
		if pa != pb {
			t.Fatalf("plan %d diverged: %s vs %s", i, pa, pb)
		}
	}
}

// TestArmedBeforeSyncCrash arms a mid-commit power cut: the commit must
// die with CodeIO, the pager must go dead, and a reopen must recover the
// pre-commit state (the tail was lost before its fsync).
func TestArmedBeforeSyncCrash(t *testing.T) {
	dir := t.TempDir()
	sim := NewSim(OS())
	p := mustOpen(t, sim, dir, nil)
	first := image(300, 1)
	mustCommit(t, p, first)

	p.Arm(CrashPlan{Point: BeforeSync, Mode: LostTail})
	err := p.Commit(image(400, 2))
	if code, _ := xerr.CodeOf(err); code != xerr.CodeIO {
		t.Fatalf("armed commit: err=%v, want CodeIO", err)
	}
	if !p.Crashed() {
		t.Fatal("pager not marked crashed")
	}
	if err := p.Commit(image(10, 3)); err == nil {
		t.Fatal("dead pager accepted a commit")
	}
	if _, err := p.Load(); err == nil {
		t.Fatal("dead pager served a load")
	}

	p2 := mustOpen(t, sim, dir, nil)
	defer p2.Close()
	if got := mustLoad(t, p2); !bytes.Equal(got, first) {
		t.Fatal("recovery after mid-commit crash did not restore the prior commit")
	}
}

// TestAfterSyncCrashBenign checks the clean power-cut model: everything
// the sound pager reported committed survives any crash mode.
func TestAfterSyncCrashBenign(t *testing.T) {
	for _, plan := range []CrashPlan{
		{Point: AfterSync, Mode: LostTail},
		{Point: AfterSync, Mode: Torn, Frac: 0.5, BitOffset: 7},
		{Point: AfterSync, Mode: BitFlip, Frac: 1.0, BitOffset: 99},
	} {
		dir := t.TempDir()
		sim := NewSim(OS())
		p := mustOpen(t, sim, dir, nil)
		img := image(PagePayload+123, 8)
		mustCommit(t, p, img)
		p.Crash(plan)
		p2 := mustOpen(t, sim, dir, nil)
		if got := mustLoad(t, p2); !bytes.Equal(got, img) {
			t.Fatalf("plan %s: committed state lost across after-sync crash", plan)
		}
		p2.Close()
	}
}

// TestResetRevivesCrashedPager mirrors the pooled-lifecycle path: a
// crashed pager must come back as a pristine empty database.
func TestResetRevivesCrashedPager(t *testing.T) {
	dir := t.TempDir()
	sim := NewSim(OS())
	p := mustOpen(t, sim, dir, nil)
	mustCommit(t, p, image(100, 1))
	p.Crash(CrashPlan{Point: AfterSync, Mode: LostTail})
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset after crash: %v", err)
	}
	if img := mustLoad(t, p); img != nil {
		t.Fatal("revived pager still holds pre-crash state")
	}
	mustCommit(t, p, image(50, 2))
	if got := mustLoad(t, p); !bytes.Equal(got, image(50, 2)) {
		t.Fatal("revived pager cannot commit")
	}
	p.Close()
}

// TestFaultLostFlush checks the injected skipped-fsync fault actually
// loses claimed-committed transactions on a power cut.
func TestFaultLostFlush(t *testing.T) {
	dir := t.TempDir()
	sim := NewSim(OS())
	fs := faults.NewSet(faults.PagerLostFlush)
	p := mustOpen(t, sim, dir, fs)
	mustCommit(t, p, image(100, 1)) // "committed", but never fsynced
	p.Crash(CrashPlan{Point: AfterSync, Mode: LostTail})
	p2 := mustOpen(t, sim, dir, fs)
	defer p2.Close()
	if img := mustLoad(t, p2); img != nil {
		t.Fatal("lost-flush fault: unsynced commit survived a LostTail crash")
	}
}

// TestFaultTruncatedReplay checks the injected replay bug drops every
// commit after the first.
func TestFaultTruncatedReplay(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, OS(), dir, nil) // sound pager writes the WAL
	first := image(100, 1)
	mustCommit(t, p, first)
	second := image(200, 2)
	mustCommit(t, p, second)
	// No Close (a Close would checkpoint and truncate the WAL).
	p2 := mustOpen(t, OS(), dir, faults.NewSet(faults.PagerTruncatedReplay))
	defer p2.Close()
	if got := mustLoad(t, p2); !bytes.Equal(got, first) {
		t.Fatal("truncated-replay fault: expected only the first commit to survive")
	}
}

// FuzzWALRecovery feeds arbitrary bytes to the WAL replay and the full
// pager open path: recovery must never panic, and whatever index it
// returns must stay inside the file.
func FuzzWALRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, walHdrSize+PageSize))
	// A well-formed single-commit WAL as a structured seed.
	dir := f.TempDir()
	p, err := Open(OS(), dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := p.Commit(image(PagePayload+10, 1)); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "db.wal"))
	if err != nil {
		f.Fatal(err)
	}
	p.Close()
	f.Add(wal)
	f.Add(wal[:len(wal)-5]) // torn tail
	mut := append([]byte(nil), wal...)
	mut[len(mut)/2] ^= 0x40 // corrupted frame
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fs := range []*faults.Set{
			nil,
			faults.NewSet(faults.PagerTornPageAccept),
			faults.NewSet(faults.PagerTruncatedReplay),
		} {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "db.wal")
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			wf, err := OS().Open(walPath)
			if err != nil {
				t.Fatal(err)
			}
			var r walReplay
			index := map[uint32]int64{}
			commits, end, err := r.run(wf, fs, index)
			wf.Close()
			if err != nil {
				t.Fatalf("replayWAL errored on in-memory-readable file: %v", err)
			}
			if end > int64(len(data)) {
				t.Fatalf("replay end %d beyond file size %d", end, len(data))
			}
			if commits > 0 && len(index) == 0 && end == 0 {
				t.Fatal("commits counted but nothing indexed and no end")
			}
			for no, off := range index {
				if off < 0 || off+PageSize > int64(len(data)) {
					t.Fatalf("index page %d → offset %d out of bounds (file %d bytes)", no, off, len(data))
				}
			}
			// The full open path must also survive: a bad WAL may yield a
			// corrupt-image error from Load, never a panic.
			p, err := Open(OS(), dir, fs)
			if err != nil {
				continue
			}
			_, _ = p.Load()
			p.Close()
		}
	})
}

// TestTornMetaImageLenRejected tears the meta page's image length, alone
// and together with its page count, into huge values: with the
// torn-page-accept fault, recovery accepts the page unverified, and Load
// must report corruption instead of sizing a buffer from the torn fields.
func TestTornMetaImageLenRejected(t *testing.T) {
	// Meta payload offsets (page.go: encodeMeta): pageCount at 8, imageLen at 12.
	for _, tc := range []struct {
		name     string
		off, len int
	}{
		{"imageLen", 12, 8},
		{"pageCount+imageLen", 8, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p := mustOpen(t, OS(), dir, nil)
			mustCommit(t, p, image(300, 1))
			if err := p.Close(); err != nil { // checkpoint into db.pg
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, "db.pg"), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{0xFF}, tc.len), int64(pageHdrSize+tc.off)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			p2 := mustOpen(t, OS(), dir, faults.NewSet(faults.PagerTornPageAccept))
			defer p2.Close()
			_, err = p2.Load()
			if code, _ := xerr.CodeOf(err); code != xerr.CodeCorrupt {
				t.Fatalf("Load with a torn meta page: err=%v, want CodeCorrupt", err)
			}
		})
	}
}

// memVFS is an in-memory base VFS for SimVFS: a file holds what was
// written to it, in a buffer that keeps its capacity.
type memVFS struct{ files map[string]*memFile }

func newMemVFS() *memVFS { return &memVFS{files: map[string]*memFile{}} }

func (v *memVFS) Open(path string) (File, error) {
	f := v.files[path]
	if f == nil {
		f = &memFile{}
		v.files[path] = f
	}
	return f, nil
}

func (v *memVFS) Remove(path string) error {
	delete(v.files, path)
	return nil
}

type memFile struct{ buf []byte }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
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
	if end := off + int64(len(p)); end > int64(len(f.buf)) {
		f.buf = extend(f.buf, end)
	}
	return copy(f.buf[off:], p), nil
}

func (f *memFile) Truncate(size int64) error {
	if size <= int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else {
		f.buf = extend(f.buf, size)
	}
	return nil
}

func (f *memFile) Size() (int64, error) { return int64(len(f.buf)), nil }
func (f *memFile) Sync() error          { return nil }
func (f *memFile) Close() error         { return nil }

// TestWarmCommitAllocatesNothing pins the reused-buffer commit path: once
// the cache, the scratch and the files have grown through a checkpoint
// cycle, committing a changed image of the same size allocates nothing.
func TestWarmCommitAllocatesNothing(t *testing.T) {
	p := mustOpen(t, NewSim(newMemVFS()), "db", nil)
	defer p.Close()
	p.CheckpointBytes = 64 << 10
	imgs := [2][]byte{image(3*PagePayload+100, 1), image(3*PagePayload+100, 2)}
	for i := 0; i < 40; i++ { // several checkpoint cycles
		mustCommit(t, p, imgs[i%2])
	}
	if p.Stats().Checkpoints == 0 {
		t.Fatal("test premise broken: warm-up never checkpointed")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		if err := p.Commit(imgs[i%2]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Commit allocates %.1f times, want 0", allocs)
	}
	if got := mustLoad(t, p); !bytes.Equal(got, imgs[i%2]) {
		t.Fatal("image lost across allocation-free commits")
	}
}

// TestReplayAllocsFlatInWALLength checks WAL replay reads every payload
// into one buffer: scanning 64 committed transactions allocates no more
// than scanning 4, each from fresh replay state.
func TestReplayAllocsFlatInWALLength(t *testing.T) {
	replayAllocs := func(commits int) float64 {
		p := mustOpen(t, NewSim(newMemVFS()), "db", nil)
		defer p.Close()
		p.CheckpointBytes = 1 << 30 // keep every commit in the WAL
		for i := 0; i < commits; i++ {
			mustCommit(t, p, image(2*PagePayload, byte(i)))
		}
		return testing.AllocsPerRun(20, func() {
			var r walReplay
			n, _, err := r.run(p.walf, nil, map[uint32]int64{})
			if err != nil || n != commits {
				t.Fatalf("replay: %d commits, err %v; want %d", n, err, commits)
			}
		})
	}
	short, long := replayAllocs(4), replayAllocs(64)
	if long > short {
		t.Fatalf("replay allocates %.0f times over 64 commits, %.0f over 4: it grows with the WAL", long, short)
	}
}

// TestReusedPageBuffersEncodeFresh shrinks the image from three pages to
// one and a half, then commits the same image again. A reused page
// buffer must encode exactly as a fresh zeroed one: stale bytes after a
// short payload would still pass every checksum, and would show only as
// frames the repeat commit appends for pages that did not change.
func TestReusedPageBuffersEncodeFresh(t *testing.T) {
	p := mustOpen(t, NewSim(newMemVFS()), "db", nil)
	defer p.Close()
	big, small := image(3*PagePayload, 1), image(PagePayload+PagePayload/2, 2)
	mustCommit(t, p, big)
	mustCommit(t, p, small)

	check := func(img []byte) {
		t.Helper()
		meta := encodeMeta(p.m)
		for no, payload := range paginate(nil, meta[:], img) {
			want := encodePage(make([]byte, PageSize), uint32(no), payload)
			got, err := p.readPage(uint32(no))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d differs from a fresh encoding", no)
			}
		}
	}
	check(small)
	frames := p.Stats().WalFrames
	mustCommit(t, p, small)
	check(small)
	// The meta page carries the commit generation, so it changes with
	// every commit; no image page may be appended again.
	if got := p.Stats().WalFrames - frames; got != 2 {
		t.Fatalf("repeat commit appended %d frames, want 2 (meta page + commit frame)", got)
	}
	if got := mustLoad(t, p); !bytes.Equal(got, small) {
		t.Fatal("loaded image differs from the committed one")
	}
}

// TestReopenReusesBuffers recovers one crashed history three times: in
// place, in place again, and with a new pager. All three must load the
// same image and report the same counters, and the second in-place
// recovery must work in the page and image buffers the first one grew.
func TestReopenReusesBuffers(t *testing.T) {
	for _, plan := range []CrashPlan{
		{Point: AfterSync, Mode: LostTail},
		{Point: BeforeSync, Mode: LostTail},
		{Point: BeforeSync, Mode: Torn, Frac: 0.5},
		{Point: BeforeSync, Mode: BitFlip, Frac: 1, BitOffset: 4321},
	} {
		sim := NewSim(newMemVFS())
		p := mustOpen(t, sim, "db", nil)
		p.CheckpointBytes = 48 << 10
		for i := 0; i < 12; i++ {
			mustCommit(t, p, image(PagePayload*(1+i%3), byte(i)))
		}
		if plan.Point == BeforeSync {
			p.Arm(plan)
			if err := p.Commit(image(2*PagePayload, 99)); err == nil {
				t.Fatalf("plan %s: armed commit succeeded", plan)
			}
		} else {
			p.Crash(plan)
		}
		// A power cut with nothing unsynced leaves the files as they are,
		// so every later recovery sees the same history.
		again := CrashPlan{Point: AfterSync, Mode: LostTail}
		recoverInPlace := func() ([]byte, Stats) {
			t.Helper()
			if err := p.Reopen(); err != nil {
				t.Fatalf("plan %s: Reopen: %v", plan, err)
			}
			return bytes.Clone(mustLoad(t, p)), p.Stats()
		}
		want, wantStats := recoverInPlace()
		owned := map[*byte]bool{}
		for _, c := range p.cache.spare {
			owned[&c.data[0]] = true
		}
		for c := p.cache.head; c != nil; c = c.next {
			owned[&c.data[0]] = true
		}
		loaded := &p.loaded[0]

		p.Crash(again)
		img, stats := recoverInPlace()
		if !bytes.Equal(img, want) || stats != wantStats {
			t.Fatalf("plan %s: second recovery loaded a different image or counters %+v, want %+v", plan, stats, wantStats)
		}
		for c := p.cache.head; c != nil; c = c.next {
			if !owned[&c.data[0]] {
				t.Fatalf("plan %s: second recovery allocated a buffer for page %d", plan, c.no)
			}
		}
		if &p.loaded[0] != loaded {
			t.Fatalf("plan %s: second recovery allocated a new image buffer", plan)
		}

		p.Crash(again)
		fresh := mustOpen(t, sim, "db", nil)
		if got := mustLoad(t, fresh); !bytes.Equal(got, want) || fresh.Stats() != wantStats {
			t.Fatalf("plan %s: a new pager loaded a different image or counters %+v, want %+v", plan, fresh.Stats(), wantStats)
		}
		if err := fresh.Reopen(); err == nil {
			t.Fatal("Reopen of an open pager succeeded")
		}
		mustCommit(t, fresh, image(100, 7))
		if got := mustLoad(t, fresh); !bytes.Equal(got, image(100, 7)) {
			t.Fatal("recovered pager cannot commit")
		}
		fresh.Close()
	}
}

// TestChecksumFormat pins both checksums to plain CRC32C over the bytes
// they cover, so the allocation-free computation keeps the on-disk
// format: a page's little-endian number then its payload, and a frame's
// first 16 header bytes then its payload.
func TestChecksumFormat(t *testing.T) {
	payload := image(100, 3)
	for _, no := range []uint32{0, 1, 258, 0xDEADBEEF} {
		want := crc32.Checksum(append(binary.LittleEndian.AppendUint32(nil, no), payload...), crcTable)
		if got := pageCRC(no, payload); got != want {
			t.Fatalf("pageCRC(%d) = %#x, want %#x", no, got, want)
		}
	}
	var frame [walHdrSize + PageSize]byte
	if _, err := appendFrame(&memFile{}, frame[:], 0, 7, 0, 42, payload); err != nil {
		t.Fatal(err)
	}
	want := crc32.Checksum(append(frame[:16:16], payload...), crcTable)
	if got := binary.LittleEndian.Uint32(frame[16:]); got != want {
		t.Fatalf("frame checksum = %#x, want %#x", got, want)
	}
}

// TestCommitBeyondCacheCapacity commits an image of more pages than the
// cache holds, reopens, and commits it again with every page changed: the
// commit stages more dirty pages than the cache's capacity, so each page
// a cache miss reads in must keep its own buffer while the pinned pages
// push the cache over capacity.
func TestCommitBeyondCacheCapacity(t *testing.T) {
	const pages = 300 // more than the cache's 256 entries
	for _, reopen := range []string{"close", "crash"} {
		t.Run(reopen, func(t *testing.T) {
			p := mustOpen(t, NewSim(newMemVFS()), "db", nil)
			defer p.Close()
			p.CheckpointBytes = 1 << 30
			mustCommit(t, p, image(pages*PagePayload, 1))
			reopenPager := func() {
				t.Helper()
				if reopen == "close" {
					if err := p.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					p.Crash(CrashPlan{Point: AfterSync, Mode: LostTail})
				}
				if err := p.Reopen(); err != nil {
					t.Fatalf("Reopen: %v", err)
				}
			}
			reopenPager()
			want := image(pages*PagePayload, 2)
			mustCommit(t, p, want)
			if got := mustLoad(t, p); !bytes.Equal(got, want) {
				t.Fatal("Load after an over-capacity commit differs from the committed image")
			}
			reopenPager()
			if got := mustLoad(t, p); !bytes.Equal(got, want) {
				t.Fatal("recovered image differs from the committed one")
			}
		})
	}
}

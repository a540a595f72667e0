package engine

// Durable storage: an engine opened with OpenDurable keeps its committed
// state in a page file + WAL managed by internal/storage/pager. After
// every mutating statement the engine serializes its logical state (DDL
// log, rows, options, per-table bookkeeping) into a byte image and
// commits it through the pager — WAL append → fsync → checkpoint. Opening
// recovers: the pager replays its WAL, the engine replays the DDL log to
// rebuild catalog and containers, bulk-installs the rows under their
// original rowids, and rebuilds every index from the heap.
//
// Persistence is deliberately at statement granularity and runs even when
// the statement itself failed: a multi-row INSERT that dies on row 2
// keeps row 1 in memory, and the durable image must track the in-memory
// ground truth exactly or the recovery-equivalence oracle would report
// false divergences. Two canonicalizations are accepted and documented:
// recovery rebuilds indexes from the heap (REINDEX semantics, without the
// uniqueness re-check), and a corruption flag raised together with a
// statement error is persisted with that statement's image.

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/storage/pager"
	"repro/internal/xerr"
)

// OpenDurable creates or reopens a durable database in dir. Opening an
// existing database runs crash recovery: WAL replay in the pager, then
// DDL/row reconstruction in the engine.
func OpenDurable(d dialect.Dialect, vfs pager.VFS, dir string, opts ...Option) (*Engine, error) {
	e := Open(d, opts...)
	pg, err := pager.Open(vfs, dir, e.fs)
	if err != nil {
		return nil, err
	}
	e.pg = pg
	if err := e.loadDurable(); err != nil {
		pg.Close()
		return nil, err
	}
	return e, nil
}

// Durable reports whether the engine persists through a pager.
func (e *Engine) Durable() bool { return e.pg != nil }

// PagerStats returns the pager's work counters (zero Stats when the
// engine is purely in-memory).
func (e *Engine) PagerStats() (pager.Stats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pg == nil {
		return pager.Stats{}, false
	}
	return e.pg.Stats(), true
}

// Close checkpoints and closes the pager, leaving the database files on
// disk for a later OpenDurable. In-memory engines close trivially.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pg == nil {
		return nil
	}
	return e.pg.Close()
}

// ArmCrash schedules a simulated power cut at the plan's crash point
// inside the next commit (BeforeSync plans; AfterSync plans need no
// arming). Reports false when the engine is not durable or its VFS
// cannot simulate crashes.
func (e *Engine) ArmCrash(plan pager.CrashPlan) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pg == nil || !e.pg.CanCrash() {
		return false
	}
	e.pg.Arm(plan)
	return true
}

// DisarmCrash cancels an armed crash that has not fired.
func (e *Engine) DisarmCrash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pg != nil {
		e.pg.Disarm()
	}
}

// CrashRecover simulates a power cut per the plan (a no-op if an armed
// crash already killed the pager mid-commit), then reopens the database
// from the surviving files and runs recovery. The pager is reopened in
// place, keeping its buffers. The in-memory state is rebuilt from disk;
// outstanding data snapshots are invalidated. A returned error means
// recovery itself failed — for a sound pager that is a durability bug,
// and the recovery oracle reports it.
func (e *Engine) CrashRecover(plan pager.CrashPlan) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pg == nil {
		return xerr.New(xerr.CodeUnsupported, "engine is not durable (open with -storage=pager)")
	}
	if !e.pg.CanCrash() {
		return xerr.New(xerr.CodeUnsupported, "VFS does not support simulated crashes")
	}
	e.pg.Crash(plan)
	if err := e.pg.Reopen(); err != nil {
		return err
	}
	e.resetLocked()
	return e.loadDurable()
}

// persistLocked serializes the engine state and commits it through the
// pager. Called with e.mu held after every mutating statement.
func (e *Engine) persistLocked() error {
	return e.pg.Commit(e.encodeStateLocked())
}

// mutating reports whether a statement can change persistent state.
// Transaction control is handled before the persist path and never
// persists by itself (COMMIT persists through commitTxnLocked).
func mutating(st sqlast.Stmt) bool {
	switch st.(type) {
	case *sqlast.Select, *sqlast.Compound, *sqlast.Explain, *sqlast.Txn:
		return false
	}
	return true
}

// isDDL reports whether a successful statement must be replayed to
// rebuild the catalog on recovery.
func isDDL(st sqlast.Stmt) bool {
	switch st.(type) {
	case *sqlast.CreateTable, *sqlast.CreateIndex, *sqlast.CreateView,
		*sqlast.CreateStats, *sqlast.AlterTable, *sqlast.Drop:
		return true
	}
	return false
}

// Image format (all little-endian, strings length-prefixed):
//
//	magic u32, version u32
//	seq i64, corrupt string, caseSensitiveLike u8
//	ddlLog:  count u32, SQL string each
//	globals: count u32, (name string, value) each — sorted by name
//	tables:  count u32, each sorted by name:
//	  name string, nextRowid i64,
//	  rows: count u32, (rowid i64, nvals u32, value...) each
//	states:  count u32, each sorted by key:
//	  key string, flags u8 (analyzed|hasStats|renamedColumn|bigIntSeen),
//	  updateSeq i64, lastInsert i64, dqHijackCol i64, dqHijackVal string
//
// A value is kind u8 followed by a u64 payload (numeric kinds) or a
// length-prefixed string (text/blob).
const (
	imageMagic   = 0x52505230 // "RPR0"
	imageVersion = 1
)

type imgWriter struct{ buf []byte }

func (w *imgWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *imgWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *imgWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *imgWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *imgWriter) str(s string) { w.u32(uint32(len(s))); w.buf = append(w.buf, s...) }
func (w *imgWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *imgWriter) value(v sqlval.Value) {
	w.u8(uint8(v.Kind()))
	switch v.Kind() {
	case sqlval.KText:
		w.str(v.Str())
	case sqlval.KBlob:
		w.str(v.BlobStr())
	case sqlval.KNull:
	default:
		w.u64(v.Uint64())
	}
}

type imgReader struct {
	buf []byte
	off int
	err error
}

func (r *imgReader) fail() {
	if r.err == nil {
		r.err = xerr.New(xerr.CodeCorrupt, "durable image truncated at byte %d", r.off)
	}
}

func (r *imgReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *imgReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *imgReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *imgReader) i64() int64 { return int64(r.u64()) }

func (r *imgReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *imgReader) bool() bool { return r.u8() != 0 }

func (r *imgReader) value() sqlval.Value {
	switch sqlval.Kind(r.u8()) {
	case sqlval.KNull:
		return sqlval.Null()
	case sqlval.KInt:
		return sqlval.Int(int64(r.u64()))
	case sqlval.KUint:
		return sqlval.Uint(r.u64())
	case sqlval.KReal:
		return sqlval.Real(math.Float64frombits(r.u64()))
	case sqlval.KText:
		return sqlval.Text(r.str())
	case sqlval.KBlob:
		return sqlval.Blob([]byte(r.str()))
	case sqlval.KBool:
		return sqlval.Bool(r.u64() != 0)
	default:
		r.fail()
		return sqlval.Null()
	}
}

const (
	stAnalyzed = 1 << iota
	stHasStats
	stRenamedColumn
	stBigIntSeen
)

// encodeStateLocked serializes the engine's logical state into e.image,
// reused from commit to commit (the pager does not keep it), and
// returns it. The sorted name lists share e.imageNames.
func (e *Engine) encodeStateLocked() []byte {
	w := imgWriter{buf: e.image[:0]}
	w.u32(imageMagic)
	w.u32(imageVersion)
	w.i64(e.seq)
	w.str(e.corrupt)
	w.bool(e.caseSensitiveLike)

	w.u32(uint32(len(e.ddlLog)))
	for _, sql := range e.ddlLog {
		w.str(sql)
	}

	gnames := e.imageNames[:0]
	for name := range e.globals {
		gnames = append(gnames, name)
	}
	slices.Sort(gnames)
	w.u32(uint32(len(gnames)))
	for _, name := range gnames {
		w.str(name)
		w.value(e.globals[name])
	}

	tnames := append(gnames[:0], e.cat.TableNames()...)
	slices.Sort(tnames)
	w.u32(uint32(len(tnames)))
	for _, name := range tnames {
		td := e.data[lower(name)]
		w.str(name)
		if td == nil {
			w.i64(1)
			w.u32(0)
			continue
		}
		w.i64(td.NextRowid())
		rows := td.Rows()
		w.u32(uint32(len(rows)))
		for _, r := range rows {
			w.i64(r.Rowid)
			w.u32(uint32(len(r.Vals)))
			for _, v := range r.Vals {
				w.value(v)
			}
		}
	}

	skeys := tnames[:0]
	for k := range e.state {
		skeys = append(skeys, k)
	}
	slices.Sort(skeys)
	w.u32(uint32(len(skeys)))
	for _, k := range skeys {
		ts := e.state[k]
		w.str(k)
		var flags uint8
		if ts.analyzed {
			flags |= stAnalyzed
		}
		if ts.hasStats {
			flags |= stHasStats
		}
		if ts.renamedColumn {
			flags |= stRenamedColumn
		}
		if ts.bigIntSeen {
			flags |= stBigIntSeen
		}
		w.u8(flags)
		w.i64(ts.updateSeq)
		w.i64(ts.lastInsert)
		w.i64(int64(ts.dqHijackCol))
		w.str(ts.dqHijackVal)
	}
	e.imageNames, e.image = skeys[:0], w.buf
	return w.buf
}

// loadDurable rebuilds the engine from the pager's committed image:
// replay the DDL log through the executor (catalog, views, empty
// containers), bulk-install the rows under their original rowids, rebuild
// every index from the heap, then restore options and bookkeeping.
// Called with e.mu held on a freshly-reset engine.
func (e *Engine) loadDurable() error {
	img, err := e.pg.Load()
	if err != nil {
		return err
	}
	if img == nil {
		return nil // fresh database
	}
	r := &imgReader{buf: img}
	if r.u32() != imageMagic {
		return xerr.New(xerr.CodeCorrupt, "durable image: bad magic")
	}
	if v := r.u32(); v != imageVersion {
		return xerr.New(xerr.CodeCorrupt, "durable image: unsupported version %d", v)
	}
	seq := r.i64()
	corrupt := r.str()
	csLike := r.bool()

	ddl := make([]string, int(r.u32()))
	if r.err != nil {
		return r.err
	}
	for i := range ddl {
		ddl[i] = r.str()
	}
	if r.err != nil {
		return r.err
	}
	e.recovering = true
	for _, src := range ddl {
		stmts, perr := sqlparse.Parse(src, e.d)
		if perr != nil {
			e.recovering = false
			return xerr.New(xerr.CodeCorrupt, "durable image: DDL replay parse: %v", perr)
		}
		for _, st := range stmts {
			if _, xerr2 := e.exec1(st); xerr2 != nil {
				e.recovering = false
				return xerr.New(xerr.CodeCorrupt, "durable image: DDL replay %q: %v", src, xerr2)
			}
		}
	}
	e.recovering = false
	e.ddlLog = ddl

	for i, n := 0, int(r.u32()); i < n && r.err == nil; i++ {
		name := r.str()
		e.globals[name] = r.value()
	}

	for i, n := 0, int(r.u32()); i < n && r.err == nil; i++ {
		name := r.str()
		nextRowid := r.i64()
		nrows := int(r.u32())
		td := e.data[lower(name)]
		if td == nil && nrows > 0 {
			return xerr.New(xerr.CodeCorrupt, "durable image: rows for unknown table %s", name)
		}
		for j := 0; j < nrows && r.err == nil; j++ {
			rowid := r.i64()
			vals := make([]sqlval.Value, int(r.u32()))
			for k := range vals {
				vals[k] = r.value()
			}
			if r.err != nil {
				break
			}
			if _, ok := td.InsertWithRowid(rowid, vals); !ok {
				return xerr.New(xerr.CodeCorrupt, "durable image: duplicate rowid %d in %s", rowid, name)
			}
		}
		if td != nil {
			td.SetNextRowid(nextRowid)
		}
	}

	for i, n := 0, int(r.u32()); i < n && r.err == nil; i++ {
		key := r.str()
		flags := r.u8()
		ts := &tableState{
			analyzed:      flags&stAnalyzed != 0,
			hasStats:      flags&stHasStats != 0,
			renamedColumn: flags&stRenamedColumn != 0,
			bigIntSeen:    flags&stBigIntSeen != 0,
			updateSeq:     r.i64(),
			lastInsert:    0,
			dqHijackCol:   0,
			dqHijackVal:   "",
		}
		ts.lastInsert = r.i64()
		ts.dqHijackCol = int(r.i64())
		ts.dqHijackVal = r.str()
		e.state[key] = ts
	}
	if r.err != nil {
		return r.err
	}

	e.seq = seq
	e.corrupt = corrupt
	e.caseSensitiveLike = csLike
	e.ev.CaseSensitiveLike = csLike

	// Rebuild every index from the installed heaps (REINDEX semantics
	// without the uniqueness re-check — the data already passed it).
	for _, name := range e.cat.TableNames() {
		if err := e.rebuildIndexesOn(name, false); err != nil {
			return err
		}
	}
	return nil
}

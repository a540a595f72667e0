package engine

import (
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// Engine lifecycle support: Reset restores a pristine empty database
// without reallocating the engine's long-lived structures (catalog and
// state maps, the statement memory, recycled storage containers),
// and Snapshot/Restore capture and rewind the *data* of a fixed schema
// using the copy-on-write snapshots from internal/storage. Together they
// let campaign schedulers run many database lifecycles on one engine
// instead of constructing a fresh Engine per database.

// Reset restores the engine to the pristine state of a fresh Open: no
// tables, no options, no corruption. Allocations survive — maps are
// cleared in place, the statement slabs keep their blocks, and the
// dropped tables' storage containers go onto freelists that the next
// CREATE TABLE/INDEX pops — so a reset-and-rebuild cycle reuses the
// previous lifecycle's capacity. Coverage counters deliberately keep
// accumulating across resets (Table 4 measures a whole run).
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resetLocked()
	if e.pg != nil {
		// Durable engines also wipe the backing files (and revive a pager
		// that died to a simulated crash) so the next lifecycle starts
		// from an empty database. A reset that cannot clear the disk
		// leaves the database unusable — surface it as corruption.
		if err := e.pg.Reset(); err != nil {
			e.corrupt = err.Error()
		}
	}
}

// resetLocked clears the in-memory state only (e.mu held). CrashRecover
// uses it before reloading from disk.
func (e *Engine) resetLocked() {
	e.abortAllTxnsLocked()
	e.commitSeq = 0
	for _, td := range e.data {
		td.Reset()
		e.freeTables = append(e.freeTables, td)
	}
	for _, ixd := range e.idx {
		ixd.Reset(nil, nil)
		e.freeIndexes = append(e.freeIndexes, ixd)
	}
	clear(e.data)
	clear(e.idx)
	clear(e.state)
	clear(e.globals)
	e.cat.Reset()
	e.seq = 0
	e.ddlEpoch++
	e.corrupt = ""
	e.caseSensitiveLike = false
	e.ev.CaseSensitiveLike = false
	e.skipIndexMaint = false
	e.scope = tableScope{} // drop the last DML row and table it held
	e.ddlLog = e.ddlLog[:0]
}

// newTableData pops a recycled heap or allocates one.
func (e *Engine) newTableData() *storage.TableData {
	if n := len(e.freeTables); n > 0 {
		td := e.freeTables[n-1]
		e.freeTables = e.freeTables[:n-1]
		return td
	}
	return storage.NewTableData()
}

// newIndexData pops a recycled index or allocates one.
func (e *Engine) newIndexData(colls []sqlval.Collation, descs []bool) *storage.IndexData {
	if n := len(e.freeIndexes); n > 0 {
		ixd := e.freeIndexes[n-1]
		e.freeIndexes = e.freeIndexes[:n-1]
		ixd.Reset(colls, descs)
		return ixd
	}
	return storage.NewIndexData(colls, descs)
}

// Snapshot is a copy-on-write capture of the engine's data: every table's
// rows, every index's entries, and the session state that statements can
// change without DDL (options, per-table bookkeeping, corruption). It is
// valid until the next schema change; Restore refuses stale snapshots.
//
// The tables and indexes hold the storage containers themselves next to
// their snapshots. The pointers are valid for the snapshot's DDL epoch:
// containers are only created, renamed or recycled by DDL and Reset, which
// both move the epoch on.
type Snapshot struct {
	epoch   int64
	seq     int64
	corrupt string
	csLike  bool
	tables  []tableSnap
	indexes []indexSnap
	state   []stateSnap  // nil when the engine has no bookkeeping
	globals []globalSnap // nil when the engine has no globals
}

type tableSnap struct {
	name string
	td   *storage.TableData
	snap *storage.TableSnapshot
}

type indexSnap struct {
	name string
	ixd  *storage.IndexData
	snap *storage.IndexSnapshot
}

type stateSnap struct {
	name string
	ts   tableState
}

type globalSnap struct {
	name string
	v    sqlval.Value
}

// table returns the snapshot of the named table, or nil.
func (s *Snapshot) table(name string) *storage.TableSnapshot {
	for i := range s.tables {
		if s.tables[i].name == name {
			return s.tables[i].snap
		}
	}
	return nil
}

// index returns the snapshot of the named index, or nil.
func (s *Snapshot) index(name string) *storage.IndexSnapshot {
	for i := range s.indexes {
		if s.indexes[i].name == name {
			return s.indexes[i].snap
		}
	}
	return nil
}

// tableState returns the bookkeeping captured for the named table.
func (s *Snapshot) tableState(name string) (tableState, bool) {
	for i := range s.state {
		if s.state[i].name == name {
			return s.state[i].ts, true
		}
	}
	return tableState{}, false
}

// Snapshot captures the current data state (see type Snapshot). Cost is
// proportional to the number of rows and index entries of the tables that
// changed since their last capture or restore, not their size — the row
// values themselves are shared copy-on-write, and an unchanged table
// shares its previous snapshot. An engine with open transactions captures
// the committed state and aborts them first: a snapshot is a
// statement-boundary concept.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.abortAllTxnsLocked()
	return e.snapshotLocked()
}

// snapshotLocked captures whatever state is currently installed (e.mu
// held). The transaction machinery uses it to park a session's working
// state while another session's is installed.
func (e *Engine) snapshotLocked() *Snapshot {
	s := &Snapshot{
		epoch:   e.ddlEpoch,
		seq:     e.seq,
		corrupt: e.corrupt,
		csLike:  e.caseSensitiveLike,
		tables:  make([]tableSnap, 0, len(e.data)),
		indexes: make([]indexSnap, 0, len(e.idx)),
	}
	for name, td := range e.data {
		s.tables = append(s.tables, tableSnap{name, td, td.Snapshot()})
	}
	for name, ixd := range e.idx {
		s.indexes = append(s.indexes, indexSnap{name, ixd, ixd.Snapshot()})
	}
	if len(e.state) > 0 {
		s.state = make([]stateSnap, 0, len(e.state))
		for name, ts := range e.state {
			s.state = append(s.state, stateSnap{name, *ts})
		}
	}
	if len(e.globals) > 0 {
		s.globals = make([]globalSnap, 0, len(e.globals))
		for name, v := range e.globals {
			s.globals = append(s.globals, globalSnap{name, v})
		}
	}
	return s
}

// Restore rewinds the engine's data to a snapshot taken from it. It fails
// with CodeUnsupported if the schema changed since the snapshot (data
// snapshots capture rows, not catalog shape). Open transactions abort:
// their working state was layered over data the rewind just replaced.
func (e *Engine) Restore(s *Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.abortAllTxnsLocked()
	if err := e.restoreLocked(s); err != nil {
		return err
	}
	if e.pg != nil {
		// The rewind changed data without a statement: commit the restored
		// state so the durable image keeps tracking memory.
		return e.persistLocked()
	}
	return nil
}

// restoreLocked installs a snapshot over the current data (e.mu held, no
// persist). Fails with CodeUnsupported on a stale snapshot.
func (e *Engine) restoreLocked(s *Snapshot) error {
	if s.epoch != e.ddlEpoch {
		return xerr.New(xerr.CodeUnsupported, "snapshot is stale: schema changed since it was taken")
	}
	for _, ts := range s.tables {
		ts.td.Restore(ts.snap)
	}
	for _, is := range s.indexes {
		is.ixd.Restore(is.snap)
	}
	e.restoreStateLocked(s)
	clear(e.globals)
	for _, g := range s.globals {
		e.globals[g.name] = g.v
	}
	e.seq = s.seq
	e.corrupt = s.corrupt
	e.caseSensitiveLike = s.csLike
	e.ev.CaseSensitiveLike = s.csLike
	return nil
}

// restoreStateLocked installs captured per-table bookkeeping, overwriting
// the engine's existing tableState values in place and allocating only
// for tables the live state lacks.
func (e *Engine) restoreStateLocked(s *Snapshot) {
	for _, st := range s.state {
		if ts := e.state[st.name]; ts != nil {
			*ts = st.ts
		} else {
			ts := st.ts
			e.state[st.name] = &ts
		}
	}
	if len(e.state) == len(s.state) {
		return // the live names now include every captured one: equal sets
	}
	for name := range e.state {
		if _, ok := s.tableState(name); !ok {
			delete(e.state, name)
		}
	}
}

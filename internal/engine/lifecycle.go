package engine

import (
	"slices"

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
//
// The transaction machinery parks sessions' states in snapshots of its
// own and recycles each one once it is reinstalled or discarded (see
// recycleLocked), so a session switch allocates nothing for the Snapshot
// itself. A Snapshot returned by Engine.Snapshot belongs to the caller
// and is never recycled.
type Snapshot struct {
	epoch   int64
	seq     int64
	corrupt string
	csLike  bool
	tables  []tableSnap
	indexes []indexSnap
	state   []stateSnap
	globals []globalSnap
}

type tableSnap struct {
	name string // the catalog's spelling; lookups fold it with lower
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

// table returns the snapshot of the named table (lower-cased), or nil.
func (s *Snapshot) table(key string) *storage.TableSnapshot {
	for i := range s.tables {
		if lower(s.tables[i].name) == key {
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

// RawRows returns a copy of the named table's rows as s captured them
// (nil if s holds no such table), like Engine.RawRows.
func (s *Snapshot) RawRows(table string) [][]sqlval.Value {
	ts := s.table(lower(table))
	if ts == nil {
		return nil
	}
	out := make([][]sqlval.Value, ts.Len())
	for i, r := range ts.Rows() {
		out[i] = append([]sqlval.Value(nil), r.Vals...)
	}
	return out
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
// held), in a recycled Snapshot when one is free. The transaction
// machinery uses it to park a session's working state while another
// session's is installed.
//
// Tables and their indexes come from the catalog's cached lists and
// per-table bookkeeping from one lookup per table, so a capture walks no
// map but the options'. The lists cover the maps: DDL creates, renames
// and drops a base table's heap, its indexes' containers and its
// bookkeeping together with its catalog entry, and views have none.
func (e *Engine) snapshotLocked() *Snapshot {
	var s *Snapshot
	if n := len(e.freeSnaps); n > 0 {
		s = e.freeSnaps[n-1]
		e.freeSnaps = e.freeSnaps[:n-1]
	} else {
		s = &Snapshot{}
	}
	s.epoch, s.seq, s.corrupt, s.csLike = e.ddlEpoch, e.seq, e.corrupt, e.caseSensitiveLike
	s.tables = slices.Grow(s.tables, len(e.data))
	s.indexes = slices.Grow(s.indexes, len(e.idx))
	s.state = slices.Grow(s.state, len(e.state))
	for _, name := range e.cat.TableNames() {
		k := lower(name)
		if td := e.data[k]; td != nil {
			s.tables = append(s.tables, tableSnap{name, td, td.Snapshot()})
		}
		for _, ix := range e.cat.IndexesOn(name) {
			ik := lower(ix.Name)
			if ixd := e.idx[ik]; ixd != nil {
				s.indexes = append(s.indexes, indexSnap{ik, ixd, ixd.Snapshot()})
			}
		}
		if ts := e.state[k]; ts != nil {
			s.state = append(s.state, stateSnap{k, *ts})
		}
	}
	for name, v := range e.globals {
		s.globals = append(s.globals, globalSnap{name, v})
	}
	return s
}

// recycleLocked takes back an internal snapshot the transaction machinery
// has dropped: parked committed or working state once reinstalled or
// discarded, and a commit's working snapshot once merged. Its slices keep
// their capacity for the next capture; the storage snapshots they pointed
// to are released to whoever else holds them. Never call it on a
// snapshot a caller may still hold.
func (e *Engine) recycleLocked(s *Snapshot) {
	if s == nil {
		return
	}
	clear(s.tables)
	clear(s.indexes)
	clear(s.globals)
	s.tables, s.indexes, s.state, s.globals = s.tables[:0], s.indexes[:0], s.state[:0], s.globals[:0]
	s.corrupt = ""
	e.freeSnaps = append(e.freeSnaps, s)
}

// Diff compares the data of s, a snapshot taken from this engine, with
// the installed data as row multisets and names the first table that
// differs: among the tables s captured, the least name in byte order (a
// table the live data lacks counts as empty); failing that, the least
// live table s did not capture, with captured false. It returns "" when
// both hold the same rows.
//
// Two rows are equal when their values are equal under
// sqlval.LitCompare, that is, when they render to the same literals. A
// table whose live heap holds the very storage snapshot s captured is
// equal without reading a row. Rows are matched by sorting pointers in the
// engine's buffers; no row is copied and no value rendered. The schema
// may have changed since s (crash recovery rebuilds it), so tables pair
// by name, never by container.
func (e *Engine) Diff(s *Snapshot) (table string, captured bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range s.tables {
		ts := &s.tables[i]
		if table != "" && ts.name >= table {
			continue
		}
		var live []*storage.Row
		if td := e.data[lower(ts.name)]; td != nil {
			if td.Holds(ts.snap) {
				continue
			}
			live = td.Rows()
		}
		if !e.sameRows(ts.snap.Rows(), live) {
			table = ts.name
		}
	}
	if table != "" {
		return table, true
	}
	for _, name := range e.cat.TableNames() {
		if s.table(lower(name)) == nil && (table == "" || name < table) {
			table = name
		}
	}
	return table, false
}

// sameRows reports whether two row lists hold the same multiset under
// sqlval.LitCompareRows. Lists in the same order (a replay that
// reproduced its inserts) match without sorting.
func (e *Engine) sameRows(a, b []*storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for i < len(a) && sqlval.LitCompareRows(a[i].Vals, b[i].Vals) == 0 {
		i++
	}
	if i == len(a) {
		return true
	}
	byLit := func(x, y *storage.Row) int { return sqlval.LitCompareRows(x.Vals, y.Vals) }
	sa := append(e.diffBuf[0][:0], a[i:]...)
	sb := append(e.diffBuf[1][:0], b[i:]...)
	e.diffBuf[0], e.diffBuf[1] = sa, sb
	slices.SortFunc(sa, byLit)
	slices.SortFunc(sb, byLit)
	for j := range sa {
		if byLit(sa[j], sb[j]) != 0 {
			return false
		}
	}
	return true
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

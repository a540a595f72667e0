package storage

import "repro/internal/sqlval"

// Copy-on-write snapshots. Snapshot() captures the row-pointer / entry
// slice (a shallow copy — row values are never duplicated) and arms a cow
// flag; the one mutation that writes *through* shared row pointers
// (AddColumn) clones the affected rows first. Restore() brings the
// structure back to the captured state without reallocating its container
// map, so a snapshot/restore cycle in a hot loop costs a slice copy plus
// a map rebuild, never a deep copy of the stored values.
//
// A heap or index also remembers its clean snapshot: the one whose content
// equals its own, set by Snapshot and Restore and cleared by every
// mutator. Snapshot returns it instead of copying again, and Restore of it
// is a no-op, so a table that did not change between two captures costs
// nothing to capture or rewind. This relies on snapshots being immutable
// once taken: nothing writes through a snapshot's slices.
//
// Row value slices are immutable throughout the engine (UPDATE removes
// the old row and stores a fresh one), so sharing *Row pointers between a
// snapshot and the live heap is sound; index entry keys are likewise
// never mutated after insertion.

// TableSnapshot is a point-in-time capture of one TableData.
type TableSnapshot struct {
	rows      []*Row
	nextRowid int64
}

// Len reports how many rows the snapshot captured.
func (s *TableSnapshot) Len() int { return len(s.rows) }

// Rows returns the captured rows in the heap's order at capture time.
// Callers must not mutate the slice or the rows.
func (s *TableSnapshot) Rows() []*Row { return s.rows }

// Holds reports whether the heap's content is known to equal s without
// reading a row: s is the heap's clean snapshot. A heap that was reset,
// or changed since it took or restored s, does not hold it, even when its
// rows happen to match.
func (t *TableData) Holds(s *TableSnapshot) bool { return s != nil && s == t.clean }

// Snapshot captures the heap's current state: a shallow copy of the row
// pointers (the snapshot owns its backing array, so later inserts and
// deletes on the live heap never disturb it). A heap unchanged since its
// last Snapshot or Restore returns that snapshot again.
func (t *TableData) Snapshot() *TableSnapshot {
	if t.clean != nil {
		return t.clean
	}
	rows := make([]*Row, len(t.rows))
	copy(rows, t.rows)
	t.cow = true
	t.clean = &TableSnapshot{rows: rows, nextRowid: t.nextRowid}
	return t.clean
}

// Restore rewinds the heap to a snapshot taken from it. The byRowid map
// is rebuilt in place (cleared, not reallocated), and the snapshot stays
// valid for repeated restores. Restoring the heap's clean snapshot is a
// no-op.
func (t *TableData) Restore(s *TableSnapshot) {
	if s == t.clean {
		return
	}
	if cap(t.rows) >= len(s.rows) {
		t.rows = t.rows[:len(s.rows)]
	} else {
		t.rows = make([]*Row, len(s.rows))
	}
	copy(t.rows, s.rows)
	t.nextRowid = s.nextRowid
	clear(t.byRowid)
	for _, r := range t.rows {
		t.byRowid[r.Rowid] = r
	}
	t.cow = true
	t.clean = s
}

// Reset empties the heap, keeping the rows slice capacity and the byRowid
// map allocation for reuse (engine lifecycle pooling).
func (t *TableData) Reset() {
	t.rows = t.rows[:0]
	clear(t.byRowid)
	t.nextRowid = 1
	t.cow = false
	t.clean = nil
}

// unshare clones every row before an in-place mutation of row contents
// (AddColumn appends to each row's value slice), so rows captured by a
// snapshot keep their original width.
func (t *TableData) unshare() {
	if !t.cow {
		return
	}
	for i, r := range t.rows {
		c := r.Clone()
		t.rows[i] = c
		t.byRowid[c.Rowid] = c
	}
	t.cow = false
}

// IndexSnapshot is a point-in-time capture of one IndexData.
type IndexSnapshot struct {
	colls   []sqlval.Collation
	descs   []bool
	entries []IndexEntry
}

// Len reports how many entries the snapshot captured.
func (s *IndexSnapshot) Len() int { return len(s.entries) }

// Snapshot captures the index's current state: a shallow copy of the
// entries (keys are shared — they are never mutated after insertion) plus
// the part collations, which REINDEX faults deliberately swap and a
// restore must swap back. SetCollations installs a fresh slice rather
// than mutating in place, so capturing colls by reference is sound. An
// index unchanged since its last Snapshot or Restore returns that
// snapshot again.
func (ix *IndexData) Snapshot() *IndexSnapshot {
	if ix.clean != nil {
		return ix.clean
	}
	entries := make([]IndexEntry, len(ix.entries))
	copy(entries, ix.entries)
	ix.clean = &IndexSnapshot{colls: ix.colls, descs: ix.descs, entries: entries}
	return ix.clean
}

// Restore rewinds the index to a snapshot taken from it. Restoring the
// index's clean snapshot is a no-op.
func (ix *IndexData) Restore(s *IndexSnapshot) {
	if s == ix.clean {
		return
	}
	if cap(ix.entries) >= len(s.entries) {
		ix.entries = ix.entries[:len(s.entries)]
	} else {
		ix.entries = make([]IndexEntry, len(s.entries))
	}
	copy(ix.entries, s.entries)
	ix.colls = s.colls
	ix.descs = s.descs
	ix.clean = s
}

// Reset empties the index and installs new part collations/directions,
// keeping the entries capacity for reuse (engine lifecycle pooling).
func (ix *IndexData) Reset(colls []sqlval.Collation, descs []bool) {
	ix.entries = ix.entries[:0]
	ix.colls = colls
	ix.descs = descs
	ix.clean = nil
}

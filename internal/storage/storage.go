// Package storage implements the engine's in-memory row store and ordered
// index structure. Tables hold rows in insertion order with SQLite-style
// rowids; indexes are maintained incrementally as sorted entry slabs, which
// is where several of the paper's bug classes (stale or miscollated index
// state) are injected by the engine.
package storage

import (
	"sort"

	"repro/internal/sqlval"
)

// Row is one stored row. Vals is indexed by column position.
type Row struct {
	Rowid int64
	Vals  []sqlval.Value
}

// Clone deep-copies the row's value slice (values themselves are
// immutable).
func (r *Row) Clone() *Row {
	vals := make([]sqlval.Value, len(r.Vals))
	copy(vals, r.Vals)
	return &Row{Rowid: r.Rowid, Vals: vals}
}

// TableData is the heap of one table.
type TableData struct {
	rows      []*Row
	byRowid   map[int64]*Row
	nextRowid int64
	// cow marks the rows slice as shared with a live TableSnapshot:
	// mutations that write inside the shared prefix copy it first
	// (appends past the snapshot length are safe without copying).
	cow bool
	// clean is the snapshot whose content equals the heap's, or nil once
	// a mutation has diverged from it (see snapshot.go).
	clean *TableSnapshot
}

// NewTableData returns an empty heap.
func NewTableData() *TableData {
	return &TableData{byRowid: map[int64]*Row{}, nextRowid: 1}
}

// Insert appends a row, assigning the next rowid. The value slice is owned
// by the heap afterwards.
func (t *TableData) Insert(vals []sqlval.Value) *Row {
	r := &Row{Rowid: t.nextRowid, Vals: vals}
	t.nextRowid++
	t.clean = nil
	t.rows = append(t.rows, r)
	t.byRowid[r.Rowid] = r
	return r
}

// InsertWithRowid inserts a row under an explicit rowid (used for rowid
// aliases). It fails if the rowid exists.
func (t *TableData) InsertWithRowid(rowid int64, vals []sqlval.Value) (*Row, bool) {
	if _, dup := t.byRowid[rowid]; dup {
		return nil, false
	}
	r := &Row{Rowid: rowid, Vals: vals}
	t.clean = nil
	if rowid >= t.nextRowid {
		t.nextRowid = rowid + 1
	}
	t.rows = append(t.rows, r)
	t.byRowid[rowid] = r
	return r, true
}

// Rows returns the live rows in insertion order. Callers must not mutate
// the slice.
func (t *TableData) Rows() []*Row { return t.rows }

// NextRowid reports the rowid the next Insert would assign.
func (t *TableData) NextRowid() int64 { return t.nextRowid }

// SetNextRowid raises the rowid allocator — durable-storage recovery
// restores the allocator past deleted high rowids.
func (t *TableData) SetNextRowid(n int64) {
	if n > t.nextRowid {
		t.nextRowid = n
		t.clean = nil
	}
}

// Len reports the number of live rows.
func (t *TableData) Len() int { return len(t.rows) }

// Get resolves a rowid.
func (t *TableData) Get(rowid int64) (*Row, bool) {
	r, ok := t.byRowid[rowid]
	return r, ok
}

// Delete removes a row by rowid.
func (t *TableData) Delete(rowid int64) bool {
	if _, ok := t.byRowid[rowid]; !ok {
		return false
	}
	delete(t.byRowid, rowid)
	t.clean = nil
	for i, r := range t.rows {
		if r.Rowid == rowid {
			t.rows = append(t.rows[:i], t.rows[i+1:]...)
			break
		}
	}
	return true
}

// DeleteLast removes the row with the highest rowid (REPAIR TABLE
// truncation fault site). It reports whether a row was removed.
func (t *TableData) DeleteLast() bool {
	if len(t.rows) == 0 {
		return false
	}
	maxIdx := 0
	for i, r := range t.rows {
		if r.Rowid > t.rows[maxIdx].Rowid {
			maxIdx = i
		}
	}
	return t.Delete(t.rows[maxIdx].Rowid)
}

// AddColumn extends every row with a value for a newly added column.
func (t *TableData) AddColumn(def sqlval.Value) {
	t.unshare()
	t.clean = nil
	for _, r := range t.rows {
		r.Vals = append(r.Vals, def)
	}
}

// IndexEntry is one (key, rowid) pair of an index.
type IndexEntry struct {
	Key   []sqlval.Value
	Rowid int64
}

// IndexData is the sorted entry set of one index. Keys compare part-wise
// under per-part collations; ties break by rowid so entries are unique.
type IndexData struct {
	colls   []sqlval.Collation
	descs   []bool
	entries []IndexEntry
	// clean is the snapshot whose content equals the index's, or nil once
	// a mutation has diverged from it (see snapshot.go).
	clean *IndexSnapshot
}

// NewIndexData returns an empty index ordered by the given per-part
// collations and sort directions.
func NewIndexData(colls []sqlval.Collation, descs []bool) *IndexData {
	return &IndexData{colls: colls, descs: descs}
}

// CompareKeys orders two keys part-wise.
func (ix *IndexData) CompareKeys(a, b []sqlval.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		coll := sqlval.CollBinary
		if i < len(ix.colls) {
			coll = ix.colls[i]
		}
		c := sqlval.Compare(a[i], b[i], coll)
		if i < len(ix.descs) && ix.descs[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func (ix *IndexData) searchEntry(key []sqlval.Value, rowid int64) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c := ix.CompareKeys(ix.entries[i].Key, key)
		if c != 0 {
			return c >= 0
		}
		return ix.entries[i].Rowid >= rowid
	})
}

// Insert adds an entry in sorted position.
func (ix *IndexData) Insert(key []sqlval.Value, rowid int64) {
	i := ix.searchEntry(key, rowid)
	ix.clean = nil
	ix.entries = append(ix.entries, IndexEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = IndexEntry{Key: key, Rowid: rowid}
}

// Delete removes the entry with the given key and rowid, reporting whether
// it was present.
func (ix *IndexData) Delete(key []sqlval.Value, rowid int64) bool {
	i := ix.searchEntry(key, rowid)
	if i < len(ix.entries) && ix.entries[i].Rowid == rowid && ix.CompareKeys(ix.entries[i].Key, key) == 0 {
		ix.entries = append(ix.entries[:i], ix.entries[i+1:]...)
		ix.clean = nil
		return true
	}
	// Fall back to a linear scan: a caller may delete with a key that
	// was computed differently from the stored one (stale-index bugs).
	for j := range ix.entries {
		if ix.entries[j].Rowid == rowid {
			ix.entries = append(ix.entries[:j], ix.entries[j+1:]...)
			ix.clean = nil
			return true
		}
	}
	return false
}

// DeleteRowid removes every entry for a rowid (used when the key can no
// longer be recomputed).
func (ix *IndexData) DeleteRowid(rowid int64) int {
	n := 0
	out := ix.entries[:0]
	for _, e := range ix.entries {
		if e.Rowid == rowid {
			n++
			continue
		}
		out = append(out, e)
	}
	ix.entries = out
	if n > 0 {
		ix.clean = nil
	}
	return n
}

// Equal returns the rowids whose full key compares equal to key, in entry
// order.
func (ix *IndexData) Equal(key []sqlval.Value) []int64 {
	var out []int64
	i := sort.Search(len(ix.entries), func(i int) bool {
		return ix.CompareKeys(ix.entries[i].Key, key) >= 0
	})
	for ; i < len(ix.entries); i++ {
		if ix.CompareKeys(ix.entries[i].Key, key) != 0 {
			break
		}
		out = append(out, ix.entries[i].Rowid)
	}
	return out
}

// EqualPrefix returns the rowids whose leading key parts equal prefix.
// Entries sharing a prefix are contiguous in key order, so the lookup is
// two binary searches plus the matching span.
func (ix *IndexData) EqualPrefix(prefix []sqlval.Value) []int64 {
	lo, hi := ix.prefixSpan(prefix)
	var out []int64
	for i := lo; i < hi; i++ {
		if len(ix.entries[i].Key) < len(prefix) {
			continue
		}
		out = append(out, ix.entries[i].Rowid)
	}
	return out
}

// comparePrefix orders an entry's leading parts against a search prefix
// under the index collations/directions. An entry shorter than the prefix
// compares by its available parts only (it sorts with its group).
func (ix *IndexData) comparePrefix(key, prefix []sqlval.Value) int {
	if len(key) > len(prefix) {
		key = key[:len(prefix)]
	}
	return ix.CompareKeys(key, prefix)
}

// prefixSpan returns the half-open entry range [lo, hi) whose leading key
// parts compare equal to prefix.
func (ix *IndexData) prefixSpan(prefix []sqlval.Value) (int, int) {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return ix.comparePrefix(ix.entries[i].Key, prefix) >= 0
	})
	hi := sort.Search(len(ix.entries), func(i int) bool {
		return ix.comparePrefix(ix.entries[i].Key, prefix) > 0
	})
	return lo, hi
}

// PrefixCount reports how many entries share the given leading key parts
// (planner cost estimation; O(log n)).
func (ix *IndexData) PrefixCount(prefix []sqlval.Value) int {
	lo, hi := ix.prefixSpan(prefix)
	return hi - lo
}

// Bound is one end of a leading-key-part range scan. A nil Key leaves that
// end open.
type Bound struct {
	Key       sqlval.Value
	Inclusive bool
}

// rangeSpan locates the half-open entry range [lo, hi) whose leading key
// part falls between the bounds under the index's part-0 collation. It is
// only meaningful when the leading part is ascending.
func (ix *IndexData) rangeSpan(lo, hi *Bound) (int, int) {
	start := 0
	if lo != nil {
		k := []sqlval.Value{lo.Key}
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.comparePrefix(ix.entries[i].Key, k)
			if lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.entries)
	if hi != nil {
		k := []sqlval.Value{hi.Key}
		end = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.comparePrefix(ix.entries[i].Key, k)
			if hi.Inclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if end < start {
		end = start
	}
	return start, end
}

// RangeCount reports how many entries a leading-part range scan would
// visit (planner cost estimation; O(log n)).
func (ix *IndexData) RangeCount(lo, hi *Bound) int {
	start, end := ix.rangeSpan(lo, hi)
	return end - start
}

// Range returns the rowids whose leading key part lies between lo and hi
// (either may be nil for an open end), in entry order. NULL keys sort
// before every bound and are excluded unless the range is open below.
func (ix *IndexData) Range(lo, hi *Bound) []int64 {
	start, end := ix.rangeSpan(lo, hi)
	var out []int64
	for i := start; i < end; i++ {
		out = append(out, ix.entries[i].Rowid)
	}
	return out
}

// NumericLeadingOnly reports whether every entry's leading key part is
// NULL or numeric-class. Key order ranks NULL < numeric < text < blob, so
// with an ascending leading part only the last entry needs inspection.
// The planner uses this in the coercing dialects, where raw index order
// only agrees with comparison order over numeric keys.
func (ix *IndexData) NumericLeadingOnly() bool {
	if len(ix.entries) == 0 {
		return true
	}
	last := ix.entries[len(ix.entries)-1].Key
	if len(last) == 0 {
		return false
	}
	switch last[0].Kind() {
	case sqlval.KText, sqlval.KBlob:
		return false
	}
	return true
}

// TextLeadingOnly reports whether every non-NULL leading key part is text.
// With an ascending leading part, text keys form the ordered tail before
// blobs, so the first non-NULL entry and the last entry bracket the check.
func (ix *IndexData) TextLeadingOnly() bool {
	n := len(ix.entries)
	if n == 0 {
		return true
	}
	first := sort.Search(n, func(i int) bool {
		return len(ix.entries[i].Key) > 0 && !ix.entries[i].Key[0].IsNull()
	})
	if first == n {
		return true // all-NULL keys
	}
	lo, hi := ix.entries[first].Key, ix.entries[n-1].Key
	if len(lo) == 0 || len(hi) == 0 {
		return false
	}
	return lo[0].Kind() == sqlval.KText && hi[0].Kind() == sqlval.KText
}

// Entries exposes the sorted entries (read-only) for scans and integrity
// checks.
func (ix *IndexData) Entries() []IndexEntry { return ix.entries }

// Len reports the number of entries.
func (ix *IndexData) Len() int { return len(ix.entries) }

// Clear drops all entries (rebuild support).
func (ix *IndexData) Clear() {
	ix.entries = nil
	ix.clean = nil
}

// SetCollations replaces the part collations (REINDEX fault site: a
// rebuild may deliberately install the wrong collation).
func (ix *IndexData) SetCollations(colls []sqlval.Collation) {
	ix.colls = colls
	ix.clean = nil
}

// Collations returns the per-part collations.
func (ix *IndexData) Collations() []sqlval.Collation { return ix.colls }

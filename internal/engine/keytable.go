package engine

import (
	"hash/maphash"

	"repro/internal/sqlval"
)

// keyTable is the engine's one hashing mechanism: hash joins, GROUP BY,
// DISTINCT and the set operators all bucket rows by normalized key bytes
// in it. The caller builds the key bytes (appendAggKey, appendJoinKey)
// under one invariant: values its equality calls equal produce identical
// bytes. The table hands back only items stored under exactly the same
// bytes, in the order they were pushed, and the caller verifies each one
// with its full equality (rowsEqual, or the join's ON condition). A hash
// collision therefore costs a probe step, a key-byte collision a failed
// verification, and neither changes a result.
//
// Items are the caller's numbers, below the maxItems the table was made
// for: a group, a kept row, an inner row position. Keys and items keep
// insertion order, so what a caller emits never depends on hash values
// and the per-process seed cannot change a result; first-match over a
// key's items equals first-match over a linear scan, even for an equality
// that is not transitive.
//
// Each use carves its own table from the statement slabs (stmtMem.keyTable)
// and sizes it for its largest possible key count up front, so it never
// rehashes, and a nested SELECT that runs its own table cannot clobber an
// outer one.
type keyTable struct {
	mem   *stmtMem
	slots []int32    // open addressing over keys: 1 + key index, 0 = empty
	keys  []tableKey // distinct keys, in first-insertion order
	next  []int32    // per item: 1 + the next item under the same key, 0 = last
}

// tableKey is one distinct key and its item chain.
type tableKey struct {
	hash       uint64
	bytes      []byte
	head, tail int32 // 1 + the key's first and last item, 0 = none yet
}

// keySeed seeds every table's hash.
var keySeed = maphash.MakeSeed()

// keyTable carves a table for at most maxKeys distinct keys and items
// numbered below maxItems.
func (m *stmtMem) keyTable(maxKeys, maxItems int) keyTable {
	n := 8
	for n < 2*maxKeys {
		n *= 2
	}
	return keyTable{mem: m, slots: m.slots.alloc(n), keys: m.tableKeys.carve(maxKeys),
		next: m.slots.alloc(maxItems)}
}

// find returns the index of key's entry. A missing key is added when add
// is set; otherwise find returns -1.
func (t *keyTable) find(key []byte, add bool) int32 {
	h := maphash.Bytes(keySeed, key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if k := &t.keys[t.slots[i]-1]; k.hash == h && string(k.bytes) == string(key) {
			return t.slots[i] - 1
		}
	}
	if !add {
		return -1
	}
	b := t.mem.bytes.alloc(len(key))
	copy(b, key)
	t.keys = append(t.keys, tableKey{hash: h, bytes: b})
	t.slots[i] = int32(len(t.keys))
	return int32(len(t.keys) - 1)
}

// push appends item to the items of key k.
func (t *keyTable) push(k, item int32) {
	e := &t.keys[k]
	if e.tail == 0 {
		e.head = item + 1
	} else {
		t.next[e.tail-1] = item + 1
	}
	e.tail = item + 1
}

// first returns the first item of key k, or -1 when k is -1 or has none.
func (t *keyTable) first(k int32) int32 {
	if k < 0 {
		return -1
	}
	return t.keys[k].head - 1
}

// after returns the item pushed under the same key after item, or -1.
func (t *keyTable) after(item int32) int32 { return t.next[item] - 1 }

// rowsEqual is the equality GROUP BY, DISTINCT and the set operators
// verify bucket matches with: NULLs equal each other, numbers compare
// across storage classes, text under coll. Compare ranks NULL as its own
// class, so it already calls two NULLs equal and NULL unequal to any value;
// identical values skip it.
func rowsEqual(a, b []sqlval.Value, coll sqlval.Collation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && sqlval.Compare(a[i], b[i], coll) != 0 {
			return false
		}
	}
	return true
}

// appendRowKey appends a row's normalized key: each value's appendAggKey
// component under coll, each followed by a 0 byte.
func appendRowKey(buf []byte, row []sqlval.Value, coll sqlval.Collation) []byte {
	for _, v := range row {
		buf = append(appendAggKey(buf, v, coll), 0)
	}
	return buf
}

// dedup keeps the first of every set of rowsEqual rows under coll, in
// input order. The returned table's items index the kept rows.
func (e *Engine) dedup(rows [][]sqlval.Value, coll sqlval.Collation) ([][]sqlval.Value, keyTable) {
	m := &e.mem
	t := m.keyTable(len(rows), len(rows))
	out := m.resRows.carve(len(rows))
	key := m.key
	for _, row := range rows {
		key = appendRowKey(key[:0], row, coll)
		k := t.find(key, true)
		dup := false
		for i := t.first(k); i >= 0; i = t.after(i) {
			if rowsEqual(out[i], row, coll) {
				dup = true
				break
			}
		}
		if !dup {
			t.push(k, int32(len(out)))
			out = append(out, row)
		}
	}
	m.key = key
	return m.resRows.fit(out), t
}

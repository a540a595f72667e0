package engine

import (
	"unsafe"

	"repro/internal/eval"
	"repro/internal/sqlval"
)

// Statement memory. A SELECT allocates its relation row headers, join
// combos, grouping state, hash tables and result rows from slabs the
// engine owns (stmtMem), so a warmed engine runs campaign queries without
// feeding the GC. Hash joins, GROUP BY, DISTINCT and the set operators
// share one hash table type, keyTable (keytable.go): each use carves its
// slots, keys, key bytes and item chains from the statement slabs, so a
// table lives exactly as long as the statement that built it. Memory is
// released at one of two points:
//
//   - statement slabs hold what only the running SELECT or compound reads.
//     execSelect and execCompound mark them on entry and release to the
//     mark on exit — also when a simulated crash panics through them — so
//     marks nest LIFO: a view's SELECT inside buildRelation releases before
//     the outer SELECT joins, a compound arm before its set operator runs.
//   - result slabs hold Result rows. Conn.ExecStmt releases them on entry,
//     so a result stays valid through the nested views and compound arms
//     that read it, and until the next top-level statement on the engine,
//     from any session. Callers that keep rows past that point copy them
//     (sut.CloneRows).
//
// Release clears what it frees in the slab's current block: a statement
// slab pins no rows of a finished statement, and a result row read after
// the next statement reads as NULL — or as a later result's values once
// one reuses the memory — so a caller that breaks the rule fails loudly.
// A row carved from a block the slab has since outgrown is not cleared:
// it keeps its old values, and the block is garbage once no one holds it.

// slabRetainBytes caps the block an idle slab keeps: one huge join or
// result should not pin its block for the engine's lifetime, and pooled
// engines × workers multiply whatever each one keeps.
const slabRetainBytes = 4 << 20

// slabMinBytes sizes a slab's first block: a fresh engine that runs a few
// small statements should not pay for campaign-sized blocks up front.
const slabMinBytes = 1 << 10

// slab block-allocates values of one type between marks and releases.
//
// Offsets are stable across growth: a new block is twice the old one (but
// no larger than the idle cap when the request fits in it) and starts at
// the old length (its prefix stays zero), so marks taken before the growth
// still address the right place. The exhausted block is abandoned to the
// slices already carved from it, so carved memory never moves. Everything
// past the slab's length is zero: alloc hands out zeroed memory, and
// release re-zeroes what it takes back.
type slab[T any] struct {
	buf []T
}

// alloc carves n zeroed elements (nil for none).
func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	start := len(s.buf)
	if start+n > cap(s.buf) {
		sz := max(2*cap(s.buf), s.lenOf(slabMinBytes))
		for sz < start+n {
			sz *= 2
		}
		if keep := s.lenOf(slabRetainBytes); cap(s.buf) < keep && start+n <= keep {
			sz = min(sz, keep) // a block the idle slab can keep
		}
		s.buf = make([]T, start, sz)
	}
	s.buf = s.buf[:start+n]
	return s.buf[start : start+n : start+n]
}

// carve returns an empty slice with room for n elements for the caller to
// append to. The room stops at the idle cap, so an upper bound far above
// the real output cannot grow the slab past what it keeps. Appending past
// the room moves the slice to the heap, which is correct, only not free.
// fit hands back the room the caller did not use.
func (s *slab[T]) carve(n int) []T {
	return s.alloc(min(n, max(s.lenOf(slabRetainBytes)-len(s.buf), 0)))[:0]
}

// fit returns the unused room of b, the slab's newest carve, to the slab
// (unwritten, so still zero) and caps b at its length, so a later append
// to b cannot write into memory the slab hands out again. A b that
// outgrew its carve is on the heap: its carve stays taken until release.
func (s *slab[T]) fit(b []T) []T {
	start := len(s.buf) - cap(b)
	if cap(b) > 0 && start >= 0 && &s.buf[start] == &b[:1][0] {
		s.buf = s.buf[:start+len(b)]
	}
	return b[:len(b):len(b)]
}

// mark returns the slab's current offset, for a later release.
func (s *slab[T]) mark() int { return len(s.buf) }

// release frees and zeroes everything carved since mark. A release to
// zero also drops a block larger than the idle cap.
func (s *slab[T]) release(mark int) {
	clear(s.buf[mark:])
	s.buf = s.buf[:mark]
	if mark == 0 {
		s.shed()
	}
}

// shed drops the block when it exceeds the idle cap, uncleared: it stays
// valid for the slices already carved from it.
func (s *slab[T]) shed() {
	if cap(s.buf) > s.lenOf(slabRetainBytes) {
		s.buf = nil
	}
}

// lenOf converts a size in bytes into whole elements (at least one).
func (s *slab[T]) lenOf(bytes int) int {
	var zero T
	return max(bytes/max(int(unsafe.Sizeof(zero)), 1), 1)
}

// stmtMem is the engine's SELECT memory (see the top of this file).
type stmtMem struct {
	// Statement slabs.
	relations slab[relation]       // FROM sources
	rows      slab[rowVals]        // relation row headers
	ptrs      slab[*rowVals]       // relation row lists, join combos, scratch combos
	combos    slab[[]*rowVals]     // per-level join and WHERE combo lists
	exprs     slab[exprEval]       // per-clause evaluation state
	cols      slab[outCol]         // expanded result columns
	frames    slab[[]sqlval.Value] // compiled-program frames
	aggs      slab[aggCol]         // hash-aggregation aggregate columns
	groups    slab[hashAggGroup]   // hash-aggregation groups
	cells     slab[aggCell]        // per-group aggregate accumulators
	vals      slab[sqlval.Value]   // group keys, inheritance-projected rows
	tableKeys slab[tableKey]       // keyTable keys
	bytes     slab[byte]           // keyTable key bytes
	slots     slab[int32]          // keyTable slots and item chains, join key indexes, top-K heaps
	code      eval.Code            // compiled expression programs

	// Result slabs.
	resVals slab[sqlval.Value]   // result row values
	resRows slab[[]sqlval.Value] // result row lists

	// key is the normalized-key scratch of one keyTable pass at a time,
	// reused across statements.
	key []byte
}

// stmtMark is a mark over every statement slab.
type stmtMark struct {
	relations, rows, ptrs, combos, exprs, cols, frames, aggs, groups, cells, vals, tableKeys, bytes, slots int
	code                                                                                                   eval.CodeMark
}

// mark marks every statement slab.
func (m *stmtMem) mark() stmtMark {
	return stmtMark{
		relations: m.relations.mark(), rows: m.rows.mark(), ptrs: m.ptrs.mark(),
		combos: m.combos.mark(), exprs: m.exprs.mark(), cols: m.cols.mark(), frames: m.frames.mark(),
		aggs: m.aggs.mark(), groups: m.groups.mark(), cells: m.cells.mark(), vals: m.vals.mark(),
		tableKeys: m.tableKeys.mark(), bytes: m.bytes.mark(), slots: m.slots.mark(),
		code: m.code.Mark(),
	}
}

// release releases every statement slab to mk.
func (m *stmtMem) release(mk stmtMark) {
	m.relations.release(mk.relations)
	m.rows.release(mk.rows)
	m.ptrs.release(mk.ptrs)
	m.combos.release(mk.combos)
	m.exprs.release(mk.exprs)
	m.cols.release(mk.cols)
	m.frames.release(mk.frames)
	m.aggs.release(mk.aggs)
	m.groups.release(mk.groups)
	m.cells.release(mk.cells)
	m.vals.release(mk.vals)
	m.tableKeys.release(mk.tableKeys)
	m.bytes.release(mk.bytes)
	m.slots.release(mk.slots)
	m.code.Release(mk.code)
}

// relation places r in the statement slabs.
func (m *stmtMem) relation(r relation) *relation {
	p := &m.relations.alloc(1)[0]
	*p = r
	return p
}

// releaseResults frees the previous statement's result rows.
func (m *stmtMem) releaseResults() {
	m.resVals.release(0)
	m.resRows.release(0)
}

// shedResults drops result blocks past the idle cap once a statement is
// done with them; the result just returned keeps its block alive for as
// long as its caller holds it.
func (m *stmtMem) shedResults() {
	m.resVals.shed()
	m.resRows.shed()
}

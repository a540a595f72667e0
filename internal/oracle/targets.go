package oracle

import (
	"slices"

	"repro/internal/gen"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sut"
)

// Targets is a database's check targets for a query phase that runs only
// SELECTs (TLP, NoREC): every table in Introspection.Tables order, whether
// it holds rows, its schema, and its columns as generator picks that share
// one prebuilt reference per column. Such a phase cannot change tables,
// row counts or schemas, so one snapshot serves every check on the
// database — the argument core's pivot-source snapshot rests on too.
//
// A Targets is a lazy snapshot: Reset marks it stale and the first check
// that needs it captures the database. Its memory is reused from one
// snapshot to the next, so the references it hands out (and the ASTs built
// on them) live until the next snapshot; a Report renders its SQL at once.
type Targets struct {
	valid    bool
	tables   []target
	nonEmpty int
	picks    []gen.ColumnPick
	refs     []sqlast.ColumnRef
}

// target is one table of a snapshot.
type target struct {
	name     string
	info     schema.TableInfo
	nonEmpty bool
	// ok is false when the table could not be described or has no
	// columns: drawing it discards the check.
	ok    bool
	picks []gen.ColumnPick
}

// Reset marks the snapshot stale: the next check captures the database
// again.
func (ts *Targets) Reset() { ts.valid = false }

// snapshot captures intro's tables into ts, reusing its memory.
func (ts *Targets) snapshot(intro sut.Introspection) {
	tables := ts.tables[:0]
	ts.nonEmpty = 0
	ncols := 0
	for _, name := range intro.Tables() {
		t := target{name: name, nonEmpty: intro.RowCount(name) > 0}
		if t.nonEmpty {
			ts.nonEmpty++
		}
		if info, err := intro.Describe(name); err == nil && len(info.Columns) > 0 {
			t.info, t.ok = info, true
			ncols += len(info.Columns)
		}
		tables = append(tables, t)
	}
	// One array each for every table's picks and references, sized up
	// front so the tables' subslices share it.
	picks := slices.Grow(ts.picks[:0], ncols)
	refs := slices.Grow(ts.refs[:0], ncols)[:ncols]
	for i := range tables {
		t := &tables[i]
		start := len(picks)
		for _, col := range t.info.Columns {
			ref := &refs[len(picks)]
			*ref = sqlast.ColumnRef{Table: t.name, Column: col.Name}
			picks = append(picks, gen.ColumnPick{Table: t.name, Column: col, Ref: ref})
		}
		t.picks = picks[start:len(picks):len(picks)]
	}
	ts.tables, ts.picks, ts.refs = tables, picks, refs
	ts.valid = true
}

// pick draws a check target, preferring tables that hold rows (empty
// tables make every check trivially pass). False discards the check.
func (ts *Targets) pick(rnd *gen.Rand) (*target, bool) {
	var t *target
	switch {
	case ts.nonEmpty > 0:
		t = ts.nthNonEmpty(rnd.Intn(ts.nonEmpty), nil)
	case len(ts.tables) > 0:
		t = &ts.tables[rnd.Intn(len(ts.tables))]
	default:
		return nil, false
	}
	return t, t.ok
}

// partner draws a second, distinct, non-empty table to join t1 with.
func (ts *Targets) partner(rnd *gen.Rand, t1 *target) (*target, bool) {
	n := ts.nonEmpty
	if t1.nonEmpty {
		n--
	}
	if n == 0 {
		return nil, false
	}
	t := ts.nthNonEmpty(rnd.Intn(n), t1)
	return t, t.ok
}

// nthNonEmpty returns the k-th non-empty table other than exclude.
func (ts *Targets) nthNonEmpty(k int, exclude *target) *target {
	for i := range ts.tables {
		t := &ts.tables[i]
		if !t.nonEmpty || t == exclude {
			continue
		}
		if k == 0 {
			return t
		}
		k--
	}
	panic("oracle: target index out of range")
}

// targets returns the check targets of db: env's per-database snapshot
// when the campaign supplies one, else own, captured afresh — a one-shot
// check cannot know what ran on the database since the last.
func (e *Env) targets(db sut.DB, own *Targets) *Targets {
	ts := e.Targets
	if ts == nil {
		ts = own
		ts.valid = false
	}
	if !ts.valid {
		ts.snapshot(db.Introspect())
	}
	return ts
}

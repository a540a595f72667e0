package oracle

import (
	"slices"

	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// Targets is a database's check targets for a query phase that runs only
// SELECTs (PQS, TLP, NoREC): every table in Introspection.Tables order,
// whether it holds rows, its schema, and its columns as generator picks
// that share one prebuilt reference per column; and, captured the first
// time a check asks for them, the stored rows of the tables that hold
// some (PQS's pivot sources). Such a phase cannot change tables, rows or
// schemas, so one snapshot serves every check on the database.
//
// A Targets is a lazy snapshot: Reset marks it stale and the first check
// that needs it captures the database. Its memory is reused from one
// snapshot to the next, so the references it hands out (and the ASTs built
// on them) live until the next snapshot; a Report renders its SQL at once.
// Captured rows are the backend's copies and are never overwritten, so a
// Report may keep them.
type Targets struct {
	valid    bool
	tables   []target
	nonEmpty int
	picks    []gen.ColumnPick
	refs     []sqlast.ColumnRef
	// sourced says sources holds this snapshot's rows; meta is the array
	// the sources' column metadata share.
	sourced bool
	sources []RowSource
	meta    []interp.ColInfo
}

// RowSource is one table of a snapshot that holds rows, as PQS draws its
// pivot rows from it: the table's schema and column picks, per column the
// interpreter metadata (collation, affinity, signedness; Val unset), and
// its stored rows in scan order.
type RowSource struct {
	Table string
	Info  schema.TableInfo
	Picks []gen.ColumnPick
	Meta  []interp.ColInfo
	Rows  [][]sqlval.Value
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
	ts.valid, ts.sourced = true, false
}

// RowSources returns the snapshot's tables that hold rows and have
// columns, with their rows, reading every table's rows through intro on
// the first call after a snapshot.
func (ts *Targets) RowSources(intro sut.Introspection) []RowSource {
	if ts.sourced {
		return ts.sources
	}
	srcs := ts.sources[:0]
	// One array for every source's metadata, sized up front (as snapshot
	// does) so the sources' subslices share it.
	meta := slices.Grow(ts.meta[:0], len(ts.picks))
	for i := range ts.tables {
		t := &ts.tables[i]
		rows := intro.RawRows(t.name)
		if len(rows) == 0 || !t.ok {
			continue
		}
		start := len(meta)
		for _, col := range t.info.Columns {
			coll, _ := sqlval.ParseCollation(col.Collate)
			meta = append(meta, interp.ColInfo{Coll: coll, Affinity: sqlval.AffinityOf(col.TypeName), Unsigned: col.Unsigned})
		}
		srcs = append(srcs, RowSource{Table: t.name, Info: t.info, Picks: t.picks, Meta: meta[start:len(meta):len(meta)], Rows: rows})
	}
	ts.sources, ts.meta, ts.sourced = srcs, meta, true
	return srcs
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

// Snapshot returns the check targets of db: env's per-database snapshot
// when the campaign supplies one, else own, captured afresh — a one-shot
// check cannot know what ran on the database since the last.
func (e *Env) Snapshot(db sut.DB, own *Targets) *Targets {
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

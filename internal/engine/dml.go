package engine

import (
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/xerr"
)

func (e *Engine) insert(n *sqlast.Insert) (*Result, error) {
	t, td, err := e.table(n.Table)
	if err != nil {
		return nil, err
	}
	// Column positions targeted by the insert.
	var targets []int
	if len(n.Columns) == 0 {
		for i := range t.Columns {
			targets = append(targets, i)
		}
	} else {
		for _, c := range n.Columns {
			ci := t.ColumnIndex(c)
			if ci < 0 {
				return nil, xerr.New(xerr.CodeNoObject, "table %s has no column named %s", t.Name, c)
			}
			targets = append(targets, ci)
		}
	}

	affected := 0
	for _, rowExprs := range n.Rows {
		if len(rowExprs) != len(targets) {
			return nil, xerr.New(xerr.CodeSyntax, "table %s has %d columns but %d values were supplied",
				t.Name, len(targets), len(rowExprs))
		}
		vals := make([]sqlval.Value, len(t.Columns))
		for i := range vals {
			vals[i] = sqlval.Null()
		}
		for i, x := range rowExprs {
			v, err := e.constEval(x)
			if err != nil {
				return nil, err
			}
			vals[targets[i]] = v
		}
		// Defaults for unmentioned columns.
		for ci := range t.Columns {
			if !contains(targets, ci) && t.Columns[ci].Default != nil {
				v, err := e.constEval(t.Columns[ci].Default)
				if err != nil {
					return nil, err
				}
				vals[ci] = v
			}
		}
		ok, err := e.storeRow(t, td, vals, n.Conflict, -1)
		if err != nil {
			return nil, err
		}
		if ok {
			affected++
		}
	}
	e.cov.hit("dml.insert")
	return &Result{RowsAffected: affected}, nil
}

// pkIsNocaseText reports whether an index's leading part is a NOCASE text
// key over a primary-key column (the Listing 4 trigger shape).
func pkIsNocaseText(t *schema.Table, ix *schema.Index, key []sqlval.Value) bool {
	if len(ix.Parts) == 0 || ix.Parts[0].Collate != sqlval.CollNoCase {
		return false
	}
	cr, ok := ix.Parts[0].X.(*sqlast.ColumnRef)
	if !ok {
		return false
	}
	ci := t.ColumnIndex(cr.Column)
	if ci < 0 || !t.Columns[ci].PK {
		return false
	}
	return len(key) > 0 && key[0].Kind() == sqlval.KText
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// coerce applies the dialect's insertion-time conversion for one column.
func (e *Engine) coerce(col *schema.Column, v sqlval.Value) (sqlval.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch e.d {
	case dialect.SQLite:
		return sqlval.ApplyAffinity(v, col.Affinity), nil
	case dialect.MySQL:
		out := sqlval.ApplyAffinity(v, col.Affinity)
		// Out-of-range integers clamp silently (non-strict mode).
		if strings.Contains(strings.ToUpper(col.TypeName), "TINYINT") && out.Kind() == sqlval.KInt {
			if out.Int64() > 127 {
				out = sqlval.Int(127)
			} else if out.Int64() < -128 {
				out = sqlval.Int(-128)
			}
		}
		if col.Unsigned && out.Kind() == sqlval.KInt {
			if out.Int64() < 0 {
				out = sqlval.Int(0) // clamp, non-strict mode
			} else {
				out = sqlval.Uint(uint64(out.Int64()))
			}
		}
		return out, nil
	default: // Postgres: strict typing
		switch col.Affinity {
		case sqlval.AffInteger:
			switch v.Kind() {
			case sqlval.KInt:
				return v, nil
			case sqlval.KReal:
				if v.Float64() == float64(int64(v.Float64())) {
					return sqlval.Int(int64(v.Float64())), nil
				}
			case sqlval.KText:
				if n, ok := sqlval.TextToNumeric(strings.TrimSpace(v.Str())); ok && n.Kind() == sqlval.KInt {
					return n, nil
				}
			}
			return v, xerr.New(xerr.CodeType, "column %q is of type integer but expression is of type %s", col.Name, v.Kind())
		case sqlval.AffReal:
			if v.IsNumeric() {
				return sqlval.Real(v.AsFloat()), nil
			}
			return v, xerr.New(xerr.CodeType, "column %q is of type real but expression is of type %s", col.Name, v.Kind())
		case sqlval.AffText:
			if v.Kind() == sqlval.KText {
				return v, nil
			}
			return v, xerr.New(xerr.CodeType, "column %q is of type text but expression is of type %s", col.Name, v.Kind())
		default:
			if strings.Contains(strings.ToUpper(col.TypeName), "BOOL") {
				if v.Kind() == sqlval.KBool {
					return v, nil
				}
				if v.Kind() == sqlval.KInt && (v.Int64() == 0 || v.Int64() == 1) {
					return sqlval.Bool(v.Int64() == 1), nil
				}
				return v, xerr.New(xerr.CodeType, "column %q is of type boolean but expression is of type %s", col.Name, v.Kind())
			}
			return v, nil
		}
	}
}

// storeRow coerces, validates, and stores one row, maintaining indexes.
// excludeRowid skips one row during uniqueness checks (UPDATE self-match).
// It reports whether the row was actually stored.
func (e *Engine) storeRow(t *schema.Table, td *storage.TableData, vals []sqlval.Value, conflict sqlast.ConflictAction, excludeRowid int64) (bool, error) {
	st := e.tableState(t.Name)
	for ci := range t.Columns {
		col := &t.Columns[ci]
		v, err := e.coerce(col, vals[ci])
		if err != nil {
			return false, err
		}
		vals[ci] = v
		// serial auto-assignment.
		if e.d == dialect.Postgres && strings.EqualFold(col.TypeName, "serial") && v.IsNull() {
			vals[ci] = sqlval.Int(int64(td.Len()) + 1)
		}
	}
	// NOT NULL.
	for ci := range t.Columns {
		col := &t.Columns[ci]
		if col.NotNull && vals[ci].IsNull() {
			if conflict == sqlast.ConflictIgnore {
				return false, nil
			}
			return false, xerr.New(xerr.CodeNotNull, "NOT NULL constraint failed: %s.%s", t.Name, col.Name)
		}
	}
	// CHECK.
	lay, f := e.scope.bind(t, vals)
	for ci := range t.Columns {
		if chk := t.Columns[ci].Check; chk != nil {
			tb, err := e.ev.EvalBool(chk, lay, f)
			if err != nil {
				return false, err
			}
			if tb == sqlval.TriFalse {
				if conflict == sqlast.ConflictIgnore {
					return false, nil
				}
				return false, xerr.New(xerr.CodeCheck, "CHECK constraint failed: %s.%s", t.Name, t.Columns[ci].Name)
			}
		}
	}

	// Uniqueness: PK tuple, column-level UNIQUE, unique explicit indexes.
	conflicts, err := e.findConflicts(t, td, vals, excludeRowid)
	if err != nil {
		return false, err
	}
	if len(conflicts) > 0 {
		switch conflict {
		case sqlast.ConflictIgnore:
			return false, nil
		case sqlast.ConflictReplace:
			for _, rid := range conflicts {
				e.removeRow(t, td, rid)
			}
		default:
			return false, xerr.New(xerr.CodeUnique, "UNIQUE constraint failed: %s", t.Name)
		}
	}

	row := td.Insert(vals)
	st.lastInsert = row.Rowid
	for ci := range vals {
		if vals[ci].Kind() == sqlval.KInt && (vals[ci].Int64() >= 2147483647 || vals[ci].Int64() <= -2147483648) {
			st.bigIntSeen = true
		}
	}
	// Maintain explicit indexes.
	if e.skipIndexMaint {
		return true, nil
	}
	for _, ix := range e.cat.IndexesOn(t.Name) {
		ixd := e.idx[lower(ix.Name)]
		if ixd == nil {
			continue
		}
		key, include, err := e.indexKey(ix, t, vals)
		if err != nil {
			td.Delete(row.Rowid)
			return false, err
		}
		if !include {
			continue
		}
		// Fault site (sqlite.nocase-unique-index, Listing 4): a NOCASE
		// index over a WITHOUT ROWID table's PK deduplicates case-variant
		// keys — the row is stored, but its index entry is silently
		// dropped, so index lookups return only one of the case variants.
		if e.nocaseIndexDrops(t, ix, key, ixd) {
			continue
		}
		if ix.Unique && !allNull(key) && len(ixd.Equal(key)) > 0 {
			td.Delete(row.Rowid)
			if conflict == sqlast.ConflictIgnore {
				return false, nil
			}
			return false, xerr.New(xerr.CodeUnique, "UNIQUE constraint failed: index %s", ix.Name)
		}
		ixd.Insert(key, row.Rowid)
	}
	return true, nil
}

// findConflicts returns rowids that collide with vals on any uniqueness
// constraint.
func (e *Engine) findConflicts(t *schema.Table, td *storage.TableData, vals []sqlval.Value, excludeRowid int64) ([]int64, error) {
	var out []int64
	seen := map[int64]bool{}
	add := func(rid int64) {
		if rid != excludeRowid && !seen[rid] {
			seen[rid] = true
			out = append(out, rid)
		}
	}
	pks := t.PKColumns()
	for _, r := range td.Rows() {
		if r.Rowid == excludeRowid {
			continue
		}
		// PK tuple equality (NULLs never conflict; SQLite rowid tables
		// allow NULL PKs).
		if len(pks) > 0 {
			match := true
			for _, ci := range pks {
				if vals[ci].IsNull() || r.Vals[ci].IsNull() {
					match = false
					break
				}
				if sqlval.Compare(vals[ci], r.Vals[ci], t.Columns[ci].Collate) != 0 {
					match = false
					break
				}
			}
			if match {
				add(r.Rowid)
				continue
			}
		}
		for ci := range t.Columns {
			if !t.Columns[ci].Unique || vals[ci].IsNull() || r.Vals[ci].IsNull() {
				continue
			}
			if sqlval.Compare(vals[ci], r.Vals[ci], t.Columns[ci].Collate) == 0 {
				add(r.Rowid)
			}
		}
	}
	return out, nil
}

// removeRow deletes a row and its index entries.
func (e *Engine) removeRow(t *schema.Table, td *storage.TableData, rowid int64) {
	for _, ix := range e.cat.IndexesOn(t.Name) {
		if ixd := e.idx[lower(ix.Name)]; ixd != nil {
			ixd.DeleteRowid(rowid)
		}
	}
	td.Delete(rowid)
}

func (e *Engine) update(n *sqlast.Update) (*Result, error) {
	t, td, err := e.table(n.Table)
	if err != nil {
		return nil, err
	}
	for _, a := range n.Sets {
		if t.ColumnIndex(a.Column) < 0 {
			return nil, xerr.New(xerr.CodeNoObject, "no such column: %s", a.Column)
		}
	}
	// Snapshot target rowids first (updates must not see their own writes).
	var targets []int64
	for _, r := range td.Rows() {
		if n.Where != nil {
			lay, f := e.scope.bind(t, r.Vals)
			tb, err := e.ev.EvalBool(n.Where, lay, f)
			if err != nil {
				return nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
		}
		targets = append(targets, r.Rowid)
	}
	affected := 0
	for _, rid := range targets {
		r, ok := td.Get(rid)
		if !ok {
			continue // replaced away by an earlier conflict resolution
		}
		newVals := make([]sqlval.Value, len(r.Vals))
		copy(newVals, r.Vals)
		lay, f := e.scope.bind(t, r.Vals)
		for _, a := range n.Sets {
			v, err := e.ev.Eval(a.Value, lay, f)
			if err != nil {
				return nil, err
			}
			newVals[t.ColumnIndex(a.Column)] = v
		}
		// Remove the old row, then store the new one; restore on failure.
		oldVals := r.Vals
		// Fault site (sqlite.stale-index-after-update): the heap row is
		// rewritten but index maintenance is skipped entirely — old entries
		// linger under the dead rowid and the new row never gets entries,
		// so index-driven access paths miss updated rows.
		if e.d == dialect.SQLite && e.fs.Has(faults.StaleIndexAfterUpdate) {
			td.Delete(rid)
			e.skipIndexMaint = true
		} else {
			e.removeRow(t, td, rid)
		}
		stored, err := e.storeRow(t, td, newVals, n.Conflict, -1)
		e.skipIndexMaint = false
		if err != nil {
			if _, serr := e.storeRow(t, td, oldVals, sqlast.ConflictIgnore, -1); serr != nil {
				e.corrupt = "database disk image is malformed"
			}
			return nil, err
		}
		if stored {
			affected++
		}
	}
	st := e.tableState(t.Name)
	st.updateSeq = e.seq

	// Fault site (sqlite.real-pk-corrupt, Listing 10): UPDATE OR REPLACE
	// touching a REAL primary key corrupts the database image.
	if e.d == dialect.SQLite && e.fs.Has(faults.RealPKCorrupt) && n.Conflict == sqlast.ConflictReplace {
		for _, ci := range t.PKColumns() {
			if t.Columns[ci].Affinity == sqlval.AffReal {
				e.corrupt = "database disk image is malformed"
			}
		}
	}
	e.cov.hit("dml.update")
	return &Result{RowsAffected: affected}, nil
}

func (e *Engine) delete(n *sqlast.Delete) (*Result, error) {
	t, td, err := e.table(n.Table)
	if err != nil {
		return nil, err
	}
	var victims []int64
	for _, r := range td.Rows() {
		if n.Where != nil {
			lay, f := e.scope.bind(t, r.Vals)
			tb, err := e.ev.EvalBool(n.Where, lay, f)
			if err != nil {
				return nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
		}
		victims = append(victims, r.Rowid)
	}
	for _, rid := range victims {
		e.removeRow(t, td, rid)
	}
	e.cov.hit("dml.delete")
	return &Result{RowsAffected: len(victims)}, nil
}

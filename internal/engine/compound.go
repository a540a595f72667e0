package engine

import (
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// execCompound evaluates UNION / UNION ALL / INTERSECT / EXCEPT chains,
// left-associatively. The set operators use SQL's DISTINCT-style equality
// (rowsEqual under CollBinary): NULLs compare equal, numeric values
// compare across storage classes. Their tables live in the statement
// slabs, marked here like execSelect marks them; the rows they return
// live in the result slabs.
func (e *Engine) execCompound(n *sqlast.Compound) (*Result, error) {
	e.cov.hit("dql.compound")
	if len(n.Selects) < 2 || len(n.Ops) != len(n.Selects)-1 {
		return nil, xerr.New(xerr.CodeSyntax, "malformed compound select")
	}
	defer e.mem.release(e.mem.mark())
	hasUnionAll := false
	for _, op := range n.Ops {
		if op == sqlast.OpUnionAll {
			hasUnionAll = true
		}
	}
	// arm evaluates one compound arm. Fault site
	// (sqlite.null-partition-drop): inside a UNION ALL chain, an arm whose
	// WHERE root is an IS NULL test contributes no rows — the shape of
	// TLP's third partition, which no pivot query ever takes.
	arm := func(sel *sqlast.Select) (*Result, error) {
		res, err := e.execSelect(sel)
		if err != nil {
			return nil, err
		}
		if hasUnionAll && e.d == dialect.SQLite && e.fs.Has(faults.NullPartitionDrop) {
			if u, ok := sel.Where.(*sqlast.Unary); ok && u.Op == sqlast.OpIsNull {
				res = &Result{Columns: res.Columns}
			}
		}
		return res, nil
	}
	acc, err := arm(n.Selects[0])
	if err != nil {
		return nil, err
	}
	for i, sel := range n.Selects[1:] {
		right, err := arm(sel)
		if err != nil {
			return nil, err
		}
		if len(acc.Columns) != len(right.Columns) {
			return nil, xerr.New(xerr.CodeSyntax,
				"SELECTs to the left and right of %s do not have the same number of result columns",
				n.Ops[i])
		}
		var rows [][]sqlval.Value
		switch n.Ops[i] {
		case sqlast.OpUnionAll:
			rows = e.concat(acc.Rows, right.Rows)
			// Fault site (sqlite.union-all-dedup): UNION ALL deduplicates
			// its concatenation the way UNION does.
			if e.d == dialect.SQLite && e.fs.Has(faults.UnionAllDedup) {
				rows, _ = e.dedup(rows, sqlval.CollBinary)
			}
		case sqlast.OpUnion:
			rows, _ = e.dedup(e.concat(acc.Rows, right.Rows), sqlval.CollBinary)
		case sqlast.OpIntersect:
			rows = e.setFilter(acc.Rows, right.Rows, true)
		case sqlast.OpExcept:
			rows = e.setFilter(acc.Rows, right.Rows, false)
		}
		acc = &Result{Columns: acc.Columns, Rows: rows}
		e.cov.hit(compoundCoverageKeys[n.Ops[i]])
	}
	return acc, nil
}

// compoundCoverageKeys maps each compound operator to its coverage key.
var compoundCoverageKeys = func() (keys [sqlast.OpExcept + 1]string) {
	for op := range keys {
		keys[op] = "dql.compound." + sqlast.CompoundOp(op).String()
	}
	return keys
}()

// concat places left's rows, then right's, in the result slabs.
func (e *Engine) concat(left, right [][]sqlval.Value) [][]sqlval.Value {
	rows := e.mem.resRows.alloc(len(left) + len(right))
	copy(rows[copy(rows, left):], right)
	return rows
}

// setFilter is INTERSECT (in=true) and EXCEPT (in=false): the distinct
// rows of left, in first-occurrence order, that have (or lack) a
// rowsEqual match in right. Every right row marks each kept row it
// equals, not only the first: rowsEqual need not be transitive.
func (e *Engine) setFilter(left, right [][]sqlval.Value, in bool) [][]sqlval.Value {
	kept, t := e.dedup(left, sqlval.CollBinary)
	hit := e.mem.slots.alloc(len(kept))
	key := e.mem.key
	for _, row := range right {
		key = appendRowKey(key[:0], row, sqlval.CollBinary)
		for i := t.first(t.find(key, false)); i >= 0; i = t.after(i) {
			if rowsEqual(kept[i], row, sqlval.CollBinary) {
				hit[i] = 1
			}
		}
	}
	e.mem.key = key
	out := kept[:0]
	for i, row := range kept {
		if (hit[i] != 0) == in {
			out = append(out, row)
		}
	}
	return out
}

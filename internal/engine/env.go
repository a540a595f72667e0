package engine

import (
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlval"
)

// relation is one FROM source during query execution: a named set of
// columns and rows (a base table, inheritance scan, or view result).
type relation struct {
	name    string // alias or table name, used for qualified lookups
	table   string // underlying base table name ("" for views/derived)
	columns []schema.Column
	engine  string // MySQL storage engine of the base table
	rows    []*rowVals
}

// rowVals is one row of a relation during execution.
type rowVals struct {
	rowid int64
	vals  []sqlval.Value
}

// eqFold is strings.EqualFold with an exact-match fast path: generated
// identifiers are case-consistent, so the byte comparison almost always
// decides and the rune-wise fold never runs.
func eqFold(a, b string) bool {
	return a == b || strings.EqualFold(a, b)
}

// findColumn resolves a (possibly unqualified) column reference over a
// relation set. ambiguous reports an unqualified name matching more than
// one column — a distinct condition from a missing name (both return
// ri = -1). relLayout resolves through it for both evaluation paths.
func findColumn(rels []*relation, table, column string) (ri, ci int, ambiguous bool) {
	if table != "" {
		for ri, r := range rels {
			if eqFold(r.name, table) || eqFold(r.table, table) {
				for ci := range r.columns {
					if eqFold(r.columns[ci].Name, column) {
						return ri, ci, false
					}
				}
				return -1, -1, false
			}
		}
		return -1, -1, false
	}
	foundR, foundC, n := -1, -1, 0
	for ri, r := range rels {
		for ci := range r.columns {
			if eqFold(r.columns[ci].Name, column) {
				foundR, foundC = ri, ci
				n++
			}
		}
	}
	if n == 1 {
		return foundR, foundC, false
	}
	return -1, -1, n > 1
}

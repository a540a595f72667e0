package gen

import (
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// ColumnSubset draws a random non-empty projection list. Narrow
// projections collide distinct rows onto equal tuples — exactly where
// duplicate-handling bugs (UNION ALL vs UNION, DISTINCT) live — so both
// the compound generator and the TLP oracle sample with it.
func ColumnSubset(rnd *Rand, info schema.TableInfo) []string {
	var out []string
	for _, ci := range AppendColumnSubset(nil, rnd, len(info.Columns)) {
		out = append(out, info.Columns[ci].Name)
	}
	return out
}

// AppendColumnSubset is ColumnSubset over n columns by position: it
// appends the drawn column indexes to dst, with the same draws.
func AppendColumnSubset(dst []int, rnd *Rand, n int) []int {
	start := len(dst)
	for ci := 0; ci < n; ci++ {
		if rnd.Bool(0.6) {
			dst = append(dst, ci)
		}
	}
	if len(dst) == start {
		dst = append(dst, rnd.Intn(n))
	}
	return dst
}

// OrderLimit decorates a single-table SELECT with ORDER BY and, usually,
// LIMIT/OFFSET. The limit is biased toward small k: that is the shape the
// engine's top-K heap serves (and where its eviction boundary lives), and
// real workloads skew the same way. Callers must be order-insensitive or
// validate position semantics themselves — the fuzzer baseline qualifies
// because it never checks result sets, and PQS builds its own
// exact-position queries instead of using this.
func OrderLimit(rnd *Rand, table string, info schema.TableInfo, sel *sqlast.Select) {
	nKeys := 1
	if len(info.Columns) > 1 && rnd.Bool(0.3) {
		nKeys = 2
	}
	seen := map[int]bool{}
	for len(sel.OrderBy) < nKeys {
		ci := rnd.Intn(len(info.Columns))
		if seen[ci] {
			continue
		}
		seen[ci] = true
		sel.OrderBy = append(sel.OrderBy, sqlast.OrderItem{
			X:    sqlast.Col(table, info.Columns[ci].Name),
			Desc: rnd.Bool(0.4),
		})
	}
	if rnd.Bool(0.85) {
		k := int64(1 + rnd.Intn(5)) // small k: the top-K heap's home turf
		if rnd.Bool(0.15) {
			k = int64(1 + rnd.Intn(1000)) // occasionally larger than the table
		}
		sel.Limit = sqlast.Lit(sqlval.Int(k))
		if rnd.Bool(0.3) {
			sel.Offset = sqlast.Lit(sqlval.Int(int64(rnd.Intn(4))))
		}
	}
}

// CompoundSelect generates a small compound SELECT over one table —
// mostly UNION ALL chains (the recombination shape TLP checks),
// occasionally UNION — so compound execution is exercised by
// generation-driven consumers like the fuzzer baseline, not only consumed
// by the TLP oracle. Every arm projects the same column list, keeping the
// compound well-formed by construction.
func CompoundSelect(rnd *Rand, eg *ExprGen, table string, info schema.TableInfo) *sqlast.Compound {
	star := rnd.Bool(0.3)
	var cols []string
	if !star {
		cols = ColumnSubset(rnd, info)
	}
	nArms := 2 + rnd.Intn(2)
	comp := &sqlast.Compound{}
	for i := 0; i < nArms; i++ {
		sel := &sqlast.Select{From: []sqlast.TableRef{{Name: table}}}
		if star {
			sel.Cols = []sqlast.ResultCol{{Star: true}}
		} else {
			for _, c := range cols {
				sel.Cols = append(sel.Cols, sqlast.ResultCol{X: sqlast.Col(table, c)})
			}
		}
		if rnd.Bool(0.8) {
			sel.Where = eg.Generate()
		}
		comp.Selects = append(comp.Selects, sel)
		if i > 0 {
			op := sqlast.OpUnionAll
			if rnd.Bool(0.2) {
				op = sqlast.OpUnion
			}
			comp.Ops = append(comp.Ops, op)
		}
	}
	return comp
}

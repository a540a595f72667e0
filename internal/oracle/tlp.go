package oracle

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

func init() {
	Register("tlp", func(o Options) Oracle { return &tlp{opts: o} })
}

// tlp implements Ternary Logic Partitioning: a random predicate p splits a
// query into the three partitions that exhaust SQL's three-valued logic —
// p, NOT p, and p IS NULL — and the partitions recombined with UNION ALL
// must reproduce the unpartitioned query exactly.
//
// Two variants run, chosen per check:
//
//   - WHERE: SELECT cols FROM t must equal, as a multiset,
//     SELECT cols WHERE p UNION ALL SELECT cols WHERE NOT p UNION ALL
//     SELECT cols WHERE p IS NULL.
//   - Aggregate: SELECT AGG(c) FROM t must equal the client-side
//     recombination of the three partition aggregates (sum for
//     COUNT/SUM, max for MAX), executed as one UNION ALL compound.
//
// Both validate whole result sets, so row drops, duplicate elimination,
// and aggregate bugs that never touch PQS's pivot row are visible.
type tlp struct {
	opts Options
}

// Name implements Oracle.
func (*tlp) Name() string { return "tlp" }

// Check implements Oracle.
func (o *tlp) Check(db sut.DB, env *Env) (*Report, error) {
	table, info, ok := pickTable(db, env.Rnd)
	if !ok {
		return nil, nil
	}
	// Join-shaped variant: partition a two-table equi-join query. The
	// partitions apply after the join, so they stay exhaustive — and the
	// shape exercises the engine's join-strategy selection (hash joins in
	// particular) under a WHERE clause, which single-table TLP never does.
	if env.Rnd.Bool(0.4) {
		if rep, err, built := o.checkJoin(db, env, table, info); built {
			return rep, err
		}
	}
	eg := &gen.ExprGen{
		Rnd:      env.Rnd,
		Cols:     columnPicks(table, info),
		Hints:    env.Hints,
		MaxDepth: depthOf(o.opts, env),
	}
	pred := eg.Generate()
	if env.Rnd.Bool(0.5) {
		return o.checkAgg(db, env, table, info, pred)
	}
	return PartitionCheck(db, env, table, gen.ColumnSubset(env.Rnd, info), pred)
}

// checkJoin runs the WHERE variant over `t1 [LEFT] JOIN t2 ON a = b`. The
// third return is false when no join shape could be built (single-table
// database) and the caller should fall back to the single-table variants.
func (o *tlp) checkJoin(db sut.DB, env *Env, t1 string, info1 schema.TableInfo) (*Report, error, bool) {
	t2, info2, ok := pickJoinPartner(db, env.Rnd, t1)
	if !ok {
		return nil, nil, false
	}
	c1, c2, ok := pickJoinKeys(env.Rnd, info1, info2)
	if !ok {
		return nil, nil, false
	}
	kind := sqlast.JoinInner
	if env.Rnd.Bool(0.45) {
		kind = sqlast.JoinLeft
	}
	on := &sqlast.Binary{Op: sqlast.OpEq, L: sqlast.Col(t1, c1), R: sqlast.Col(t2, c2)}
	picks := append(columnPicks(t1, info1), columnPicks(t2, info2)...)
	eg := &gen.ExprGen{
		Rnd:      env.Rnd,
		Cols:     picks,
		Hints:    env.Hints,
		MaxDepth: depthOf(o.opts, env),
	}
	pred := eg.Generate()
	mk := func(where sqlast.Expr) *sqlast.Select {
		sel := &sqlast.Select{
			From:  []sqlast.TableRef{{Name: t1}},
			Joins: []sqlast.JoinClause{{Kind: kind, Table: sqlast.TableRef{Name: t2}, On: on}},
			Where: where,
		}
		for _, c := range info1.Columns {
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: sqlast.Col(t1, c.Name)})
		}
		for _, c := range info2.Columns {
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: sqlast.Col(t2, c.Name)})
		}
		return sel
	}
	rep, err := comparePartitions(db, env, mk, pred, multisetDiff(t1+" JOIN "+t2))
	return rep, err, true
}

// pickJoinPartner picks a second, distinct, preferably non-empty table.
func pickJoinPartner(db sut.DB, rnd *gen.Rand, exclude string) (string, schema.TableInfo, bool) {
	intro := db.Introspect()
	var pool []string
	for _, t := range intro.Tables() {
		if t != exclude && intro.RowCount(t) > 0 {
			pool = append(pool, t)
		}
	}
	if len(pool) == 0 {
		return "", schema.TableInfo{}, false
	}
	name := pool[rnd.Intn(len(pool))]
	info, err := intro.Describe(name)
	if err != nil || len(info.Columns) == 0 {
		return "", schema.TableInfo{}, false
	}
	return name, info, true
}

// pickJoinKeys picks one column per table for the equi-join key, preferring
// pairs of matching type category: strictly-typed dialects reject (and the
// hash path's class prescan declines) cross-class equality, so matched
// pairs are the ones that actually exercise the join operators.
func pickJoinKeys(rnd *gen.Rand, info1, info2 schema.TableInfo) (string, string, bool) {
	if len(info1.Columns) == 0 || len(info2.Columns) == 0 {
		return "", "", false
	}
	type pair struct{ a, b string }
	var matched []pair
	for _, a := range info1.Columns {
		ca := gen.CategoryOfType(a.TypeName)
		for _, b := range info2.Columns {
			if ca != gen.CatAny && ca == gen.CategoryOfType(b.TypeName) {
				matched = append(matched, pair{a.Name, b.Name})
			}
		}
	}
	if len(matched) > 0 && rnd.Bool(0.9) {
		p := matched[rnd.Intn(len(matched))]
		return p.a, p.b, true
	}
	a := info1.Columns[rnd.Intn(len(info1.Columns))].Name
	b := info2.Columns[rnd.Intn(len(info2.Columns))].Name
	return a, b, true
}

// partitions returns the three exhaustive WHERE conditions of p.
func partitions(pred sqlast.Expr) [3]sqlast.Expr {
	return [3]sqlast.Expr{
		pred,
		sqlast.Not(pred),
		sqlast.IsNullExpr(pred),
	}
}

// PartitionCheck runs TLP's WHERE variant for a specific predicate and
// projection: the unpartitioned query against the UNION ALL recombination
// of its three partitions. Exported for the FuzzTLPPartition harness; the
// oracle's Check wraps it with random generation.
func PartitionCheck(db sut.DB, env *Env, table string, cols []string, pred sqlast.Expr) (*Report, error) {
	mk := func(where sqlast.Expr) *sqlast.Select {
		sel := &sqlast.Select{
			From:  []sqlast.TableRef{{Name: table}},
			Where: where,
		}
		for _, c := range cols {
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: sqlast.Col(table, c)})
		}
		return sel
	}
	return comparePartitions(db, env, mk, pred, multisetDiff(table))
}

// partitionDiff compares an unpartitioned query's rows with the rows of
// the UNION ALL of its partitions. On a mismatch it returns a Report
// holding its Message (and Agg for the aggregate variant), which
// comparePartitions completes; nil means the rows agree.
type partitionDiff func(orig, comp [][]sqlval.Value) *Report

// comparePartitions executes mk(nil) against the UNION ALL of mk over the
// three partitions of pred and reports what diff finds between them.
func comparePartitions(db sut.DB, env *Env, mk func(sqlast.Expr) *sqlast.Select, pred sqlast.Expr, diff partitionDiff) (*Report, error) {
	orig := mk(nil)
	parts := partitions(pred)
	comp := &sqlast.Compound{
		Selects: []*sqlast.Select{mk(parts[0]), mk(parts[1]), mk(parts[2])},
		Ops:     []sqlast.CompoundOp{sqlast.OpUnionAll, sqlast.OpUnionAll},
	}
	origRes, rep, err := execCheck(db, env, orig, "tlp")
	if rep != nil || err != nil || origRes == nil {
		return rep, err
	}
	origRows := sut.CloneRows(origRes.Rows) // kept across comp
	compRes, rep, err := execCheck(db, env, comp, "tlp")
	if rep != nil || err != nil || compRes == nil {
		return rep, err
	}
	rep = diff(origRows, compRes.Rows)
	if rep == nil {
		return nil, nil
	}
	rep.Oracle = faults.OracleTLP
	rep.DetectedBy = "tlp"
	rep.Trace = append(env.SetupTrace(), sqlast.SQL(comp, env.Dialect))
	rep.Compare = sqlast.SQL(orig, env.Dialect)
	return rep, nil
}

// multisetDiff is the WHERE variant's comparison: the two sides must be
// equal as multisets of rows. shape names the query source for the
// report message.
func multisetDiff(shape string) partitionDiff {
	return func(orig, comp [][]sqlval.Value) *Report {
		if MultisetEqual(orig, comp) {
			return nil
		}
		return &Report{Message: fmt.Sprintf(
			"TLP partition mismatch on %s: unpartitioned query returned %d rows, UNION ALL of partitions %d",
			shape, len(orig), len(comp))}
	}
}

// checkAgg runs the aggregate variant: COUNT always works; SUM only over
// columns whose stored values are all integral (float addition is not
// associative, so partition-order sums would false-positive); MAX over any
// column (max-of-max is order-independent under a total order).
func (o *tlp) checkAgg(db sut.DB, env *Env, table string, info schema.TableInfo, pred sqlast.Expr) (*Report, error) {
	col := info.Columns[env.Rnd.Intn(len(info.Columns))].Name
	fn := [...]string{"COUNT", "SUM", "MAX"}[env.Rnd.Intn(3)]
	if fn == "SUM" && !allIntegral(db, table, col) {
		fn = "COUNT"
	}
	mk := func(where sqlast.Expr) *sqlast.Select {
		return &sqlast.Select{
			Cols:  []sqlast.ResultCol{{X: &sqlast.FuncCall{Name: fn, Args: []sqlast.Expr{sqlast.Col(table, col)}}, Alias: "a"}},
			From:  []sqlast.TableRef{{Name: table}},
			Where: where,
		}
	}
	return comparePartitions(db, env, mk, pred, func(orig, comp [][]sqlval.Value) *Report {
		if AggValuesEqual(fn, orig, comp) {
			return nil
		}
		return &Report{Agg: fn, Message: fmt.Sprintf(
			"TLP aggregate mismatch on %s: %s(%s) is %s unpartitioned but %s recombined from partitions",
			table, fn, col, aggDisplay(orig), CombineAgg(fn, comp).String())}
	})
}

func aggDisplay(rows [][]sqlval.Value) string {
	if len(rows) == 1 && len(rows[0]) == 1 {
		return rows[0][0].String()
	}
	return fmt.Sprintf("%d rows", len(rows))
}

// allIntegral reports whether every stored value of a column is NULL,
// integer, or boolean — consulting ground truth (RawRows), not the query
// path, since SQLite's dynamic typing stores anything in any column. On
// Postgres a scan of table also reads every table that inherits from it,
// directly or through a chain of parents, so those rows count too; each
// table's column resolves by name, as the inheritance scan projects it.
func allIntegral(db sut.DB, table, col string) bool {
	intro := db.Introspect()
	for _, name := range intro.Tables() {
		info, err := intro.Describe(name)
		if err != nil {
			return false
		}
		if !inheritsFrom(intro, info, table) {
			continue
		}
		ci := -1
		for i := range info.Columns {
			if strings.EqualFold(info.Columns[i].Name, col) {
				ci = i
				break
			}
		}
		if ci < 0 {
			return false
		}
		for _, row := range intro.RawRows(name) {
			if ci >= len(row) {
				return false
			}
			switch row[ci].Kind() {
			case sqlval.KNull, sqlval.KInt, sqlval.KBool:
			default:
				return false
			}
		}
	}
	return true
}

// inheritsFrom reports whether info is table itself or reaches it through
// its chain of inheritance parents.
func inheritsFrom(intro sut.Introspection, info schema.TableInfo, table string) bool {
	for !strings.EqualFold(info.Name, table) {
		if info.Parent == "" {
			return false
		}
		var err error
		if info, err = intro.Describe(info.Parent); err != nil {
			return false
		}
	}
	return true
}

// MultisetEqual compares two result sets as bags of rows, order-blind,
// with exact (kind-tagged) value identity — both sides project the same
// stored values, so representation differences cannot legitimately occur.
func MultisetEqual(a, b [][]sqlval.Value) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, row := range a {
		counts[rowKey(row)]++
	}
	for _, row := range b {
		k := rowKey(row)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

func rowKey(row []sqlval.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteByte(0)
		if v.IsNull() {
			b.WriteString("n")
			continue
		}
		b.WriteByte('0' + byte(v.Kind()))
		b.WriteString(v.Display())
	}
	return b.String()
}

// CombineAgg recombines per-partition aggregate rows into the whole-query
// value: sum for COUNT/SUM, max for MAX, skipping NULL partitions (an
// empty partition aggregates to NULL for SUM/MAX).
func CombineAgg(fn string, rows [][]sqlval.Value) sqlval.Value {
	var vals []sqlval.Value
	for _, row := range rows {
		if len(row) > 0 && !row[0].IsNull() {
			vals = append(vals, row[0])
		}
	}
	switch strings.ToUpper(fn) {
	case "COUNT":
		var n int64
		for _, v := range vals {
			n += v.Int64()
		}
		return sqlval.Int(n)
	case "SUM":
		if len(vals) == 0 {
			return sqlval.Null()
		}
		var n int64
		for _, v := range vals {
			n += v.Int64()
		}
		return sqlval.Int(n)
	default: // MAX
		if len(vals) == 0 {
			return sqlval.Null()
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if sqlval.Compare(v, best, sqlval.CollBinary) > 0 {
				best = v
			}
		}
		return best
	}
}

// AggValuesEqual compares the unpartitioned aggregate result (one row, one
// column) against the recombination of the partition rows.
func AggValuesEqual(fn string, origRows, partRows [][]sqlval.Value) bool {
	if len(origRows) != 1 || len(origRows[0]) != 1 {
		return false
	}
	orig := origRows[0][0]
	combined := CombineAgg(fn, partRows)
	if orig.IsNull() || combined.IsNull() {
		return orig.IsNull() == combined.IsNull()
	}
	return sqlval.Compare(orig, combined, sqlval.CollBinary) == 0
}

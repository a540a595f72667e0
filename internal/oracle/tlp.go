package oracle

import (
	"bytes"
	"fmt"
	"slices"
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
//
// A tlp reuses its check memory: the four queries of a check (the
// unpartitioned one and its three partitions) share one set of clause
// slices and differ only in WHERE, and the partition wrappers, the
// generator, the copy of the unpartitioned rows and the multiset buffers
// are overwritten by the next check. So a check's ASTs live until the next
// Check; a Report renders its SQL at once.
type tlp struct {
	opts Options
	own  Targets
	eg   gen.ExprGen

	// The join variant's two-table column pool and join-key candidates;
	// the WHERE variant's column subset.
	joinPicks []gen.ColumnPick
	keyPairs  [][2]int
	subset    []int

	// Query scaffold: the clause slices every query of a check shares,
	// the four queries, the compound of the partitions, and the nodes the
	// variants add (partition wrappers, join condition, aggregate call).
	cols   []sqlast.ResultCol
	from   [1]sqlast.TableRef
	joins  [1]sqlast.JoinClause
	orig   sqlast.Select
	parts  [3]sqlast.Select
	psels  [3]*sqlast.Select
	comp   sqlast.Compound
	not    sqlast.Unary
	isNull sqlast.Unary
	on     sqlast.Binary
	agg    sqlast.FuncCall
	aggArg [1]sqlast.Expr

	origRows sut.RowsCopy
	bag      multiset
}

// Name implements Oracle.
func (*tlp) Name() string { return "tlp" }

// Check implements Oracle.
func (o *tlp) Check(db sut.DB, env *Env) (*Report, error) {
	ts := env.Snapshot(db, &o.own)
	t, ok := ts.pick(env.Rnd)
	if !ok {
		return nil, nil
	}
	// Join-shaped variant: partition a two-table equi-join query. The
	// partitions apply after the join, so they stay exhaustive — and the
	// shape exercises the engine's join-strategy selection (hash joins in
	// particular) under a WHERE clause, which single-table TLP never does.
	if env.Rnd.Bool(0.4) {
		if rep, built := o.checkJoin(db, env, ts, t); built {
			return rep, nil
		}
	}
	o.eg.Reset(env.Rnd, t.picks, env.Hints, depthOf(o.opts, env))
	pred := o.eg.Generate()
	if env.Rnd.Bool(0.5) {
		return o.checkAgg(db, env, t, pred), nil
	}
	o.subset = gen.AppendColumnSubset(o.subset[:0], env.Rnd, len(t.picks))
	o.cols = o.cols[:0]
	for _, ci := range o.subset {
		o.cols = append(o.cols, sqlast.ResultCol{X: t.picks[ci].Ref})
	}
	return o.comparePartitions(db, env, t.name, nil, pred, partitionDiff{shape: t.name}), nil
}

// checkJoin runs the WHERE variant over `t1 [LEFT] JOIN t2 ON a = b`. The
// second return is false when no join shape could be built (single-table
// database) and the caller should fall back to the single-table variants.
func (o *tlp) checkJoin(db sut.DB, env *Env, ts *Targets, t1 *target) (*Report, bool) {
	t2, ok := ts.partner(env.Rnd, t1)
	if !ok {
		return nil, false
	}
	c1, c2 := o.pickJoinKeys(env.Rnd, t1, t2)
	kind := sqlast.JoinInner
	if env.Rnd.Bool(0.45) {
		kind = sqlast.JoinLeft
	}
	o.on = sqlast.Binary{Op: sqlast.OpEq, L: t1.picks[c1].Ref, R: t2.picks[c2].Ref}
	o.joinPicks = append(append(o.joinPicks[:0], t1.picks...), t2.picks...)
	o.eg.Reset(env.Rnd, o.joinPicks, env.Hints, depthOf(o.opts, env))
	pred := o.eg.Generate()
	o.cols = o.cols[:0]
	for _, p := range o.joinPicks {
		o.cols = append(o.cols, sqlast.ResultCol{X: p.Ref})
	}
	o.joins[0] = sqlast.JoinClause{Kind: kind, Table: sqlast.TableRef{Name: t2.name}, On: &o.on}
	return o.comparePartitions(db, env, t1.name, o.joins[:], pred, partitionDiff{shape: t1.name, joined: t2.name}), true
}

// pickJoinKeys picks one column per table for the equi-join key, as
// column indexes, preferring pairs of matching type category:
// strictly-typed dialects reject (and the hash path's class prescan
// declines) cross-class equality, so matched pairs are the ones that
// actually exercise the join operators.
func (o *tlp) pickJoinKeys(rnd *gen.Rand, t1, t2 *target) (int, int) {
	matched := o.keyPairs[:0]
	for a, ca := range t1.info.Columns {
		cat := gen.CategoryOfType(ca.TypeName)
		for b, cb := range t2.info.Columns {
			if cat != gen.CatAny && cat == gen.CategoryOfType(cb.TypeName) {
				matched = append(matched, [2]int{a, b})
			}
		}
	}
	o.keyPairs = matched
	if len(matched) > 0 && rnd.Bool(0.9) {
		p := matched[rnd.Intn(len(matched))]
		return p[0], p[1]
	}
	a := rnd.Intn(len(t1.info.Columns))
	return a, rnd.Intn(len(t2.info.Columns))
}

// PartitionCheck runs TLP's WHERE variant for a specific predicate and
// projection: the unpartitioned query against the UNION ALL recombination
// of its three partitions. Exported for the FuzzTLPPartition harness; the
// oracle's Check wraps it with random generation.
func PartitionCheck(db sut.DB, env *Env, table string, cols []string, pred sqlast.Expr) *Report {
	o := &tlp{}
	for _, c := range cols {
		o.cols = append(o.cols, sqlast.ResultCol{X: sqlast.Col(table, c)})
	}
	return o.comparePartitions(db, env, table, nil, pred, partitionDiff{shape: table})
}

// partitionDiff says how a check compares the unpartitioned query's rows
// with the rows of the UNION ALL of its partitions: as multisets of rows
// (the WHERE variant, over table shape, joined with joined when set), or
// as one aggregate fn over column col recombined from the partitions.
type partitionDiff struct {
	shape, joined string
	fn, col       string
}

// comparePartitions executes the query over table (joined per joins)
// with o.cols as result columns against the UNION ALL of the same query
// over the three partitions of pred, and reports what diff finds between
// them.
func (o *tlp) comparePartitions(db sut.DB, env *Env, table string, joins []sqlast.JoinClause, pred sqlast.Expr, diff partitionDiff) *Report {
	o.from[0] = sqlast.TableRef{Name: table}
	base := sqlast.Select{Cols: o.cols, From: o.from[:], Joins: joins}
	o.orig = base
	o.not = sqlast.Unary{Op: sqlast.OpNot, X: pred}
	o.isNull = sqlast.Unary{Op: sqlast.OpIsNull, X: pred}
	for i, where := range [3]sqlast.Expr{pred, &o.not, &o.isNull} {
		o.parts[i] = base
		o.parts[i].Where = where
		o.psels[i] = &o.parts[i]
	}
	o.comp = sqlast.Compound{Selects: o.psels[:], Ops: unionAllOps}
	origRes, rep := ExecCheck(db, env, &o.orig, "tlp")
	if origRes == nil {
		return rep
	}
	origRows := o.origRows.Clone(origRes.Rows) // kept across comp
	compRes, rep := ExecCheck(db, env, &o.comp, "tlp")
	if compRes == nil {
		return rep
	}
	rep = o.diff(diff, origRows, compRes.Rows)
	if rep == nil {
		return nil
	}
	rep.Oracle = faults.OracleTLP
	rep.DetectedBy = "tlp"
	rep.Trace = append(env.SetupTrace(), sqlast.SQL(&o.comp, env.Dialect))
	rep.Compare = sqlast.SQL(&o.orig, env.Dialect)
	return rep
}

// unionAllOps joins the three partitions (shared, never mutated).
var unionAllOps = []sqlast.CompoundOp{sqlast.OpUnionAll, sqlast.OpUnionAll}

// diff compares the unpartitioned rows with the partitions' rows. On a
// mismatch it returns a Report holding its Message (and Agg for the
// aggregate variant), which comparePartitions completes; nil means the
// rows agree.
func (o *tlp) diff(d partitionDiff, orig, comp [][]sqlval.Value) *Report {
	if d.fn != "" {
		if AggValuesEqual(d.fn, orig, comp) {
			return nil
		}
		return &Report{Agg: d.fn, Message: fmt.Sprintf(
			"TLP aggregate mismatch on %s: %s(%s) is %s unpartitioned but %s recombined from partitions",
			d.shape, d.fn, d.col, aggDisplay(orig), CombineAgg(d.fn, comp).String())}
	}
	if o.bag.equal(orig, comp) {
		return nil
	}
	shape := d.shape
	if d.joined != "" {
		shape += " JOIN " + d.joined
	}
	return &Report{Message: fmt.Sprintf(
		"TLP partition mismatch on %s: unpartitioned query returned %d rows, UNION ALL of partitions %d",
		shape, len(orig), len(comp))}
}

// checkAgg runs the aggregate variant: COUNT always works; SUM only over
// columns whose stored values are all integral (float addition is not
// associative, so partition-order sums would false-positive); MAX over any
// column (max-of-max is order-independent under a total order).
func (o *tlp) checkAgg(db sut.DB, env *Env, t *target, pred sqlast.Expr) *Report {
	ci := env.Rnd.Intn(len(t.picks))
	fn := [...]string{"COUNT", "SUM", "MAX"}[env.Rnd.Intn(3)]
	if fn == "SUM" && !allIntegral(db, t.name, t.info.Columns[ci].Name) {
		fn = "COUNT"
	}
	o.aggArg[0] = t.picks[ci].Ref
	o.agg = sqlast.FuncCall{Name: fn, Args: o.aggArg[:]}
	o.cols = append(o.cols[:0], sqlast.ResultCol{X: &o.agg, Alias: "a"})
	return o.comparePartitions(db, env, t.name, nil, pred, partitionDiff{shape: t.name, fn: fn, col: t.info.Columns[ci].Name})
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
	var m multiset
	return m.equal(a, b)
}

// multiset is MultisetEqual's memory, reused from one comparison to the
// next: both sides' row keys back to back in one buffer, and one span per
// row.
type multiset struct {
	keys  []byte
	spans []keySpan
}

type keySpan struct{ start, end int }

// equal reports whether a and b are equal as multisets of row keys: the
// two sides' keys, each sorted, agree one by one.
func (m *multiset) equal(a, b [][]sqlval.Value) bool {
	if len(a) != len(b) {
		return false
	}
	m.keys, m.spans = m.keys[:0], m.spans[:0]
	for _, rows := range [2][][]sqlval.Value{a, b} {
		for _, row := range rows {
			start := len(m.keys)
			m.keys = appendRowKey(m.keys, row)
			m.spans = append(m.spans, keySpan{start, len(m.keys)})
		}
	}
	key := func(s keySpan) []byte { return m.keys[s.start:s.end] }
	byKey := func(x, y keySpan) int { return bytes.Compare(key(x), key(y)) }
	sa, sb := m.spans[:len(a)], m.spans[len(a):]
	slices.SortFunc(sa, byKey)
	slices.SortFunc(sb, byKey)
	for i := range sa {
		if !bytes.Equal(key(sa[i]), key(sb[i])) {
			return false
		}
	}
	return true
}

// appendRowKey appends a row's identity key to dst: per value a 0 byte,
// then "n" for NULL or the kind's digit and the value's literal.
func appendRowKey(dst []byte, row []sqlval.Value) []byte {
	for _, v := range row {
		dst = append(dst, 0)
		if v.IsNull() {
			dst = append(dst, 'n')
			continue
		}
		dst = append(dst, '0'+byte(v.Kind()))
		dst = v.AppendLiteral(dst)
	}
	return dst
}

// CombineAgg recombines per-partition aggregate rows into the whole-query
// value: sum for COUNT/SUM, max for MAX, skipping NULL partitions (an
// empty partition aggregates to NULL for SUM/MAX).
func CombineAgg(fn string, rows [][]sqlval.Value) sqlval.Value {
	count := strings.EqualFold(fn, "COUNT")
	sum := count || strings.EqualFold(fn, "SUM") // else MAX
	var best sqlval.Value
	var n int64
	seen := false
	for _, row := range rows {
		if len(row) == 0 || row[0].IsNull() {
			continue
		}
		v := row[0]
		switch {
		case sum:
			n += v.Int64()
		case !seen || sqlval.Compare(v, best, sqlval.CollBinary) > 0:
			best = v
		}
		seen = true
	}
	switch {
	case !sum:
		return best // NULL when every partition is
	case seen || count:
		return sqlval.Int(n)
	default: // SUM over no values
		return sqlval.Null()
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

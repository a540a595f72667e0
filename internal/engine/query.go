package engine

import (
	"sort"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// joinInfo carries the join kind and ON condition for each source after
// the first.
type joinInfo struct {
	kind sqlast.JoinKind
	on   sqlast.Expr
}

func (e *Engine) execSelect(n *sqlast.Select) (*Result, error) {
	e.cov.hit("dql.select")
	// Relations, combos and grouping state live in the engine's statement
	// slabs until the result rows are projected out of them (mem.go). The
	// deferred release also runs when a simulated crash panics through
	// here.
	defer e.mem.release(e.mem.mark())
	// Resolve sources.
	var rels []*relation
	var joins []joinInfo // parallel to rels[1:]
	single := len(n.From) == 1 && len(n.Joins) == 0
	for _, tr := range n.From {
		var r *relation
		var err error
		if single {
			// Single-source queries go through the planner: the access
			// path is chosen before materialization, so an index probe
			// fetches only candidate rows instead of the whole heap.
			r, err = e.buildPlannedRelation(n, tr)
		} else {
			r, err = e.buildRelation(tr)
		}
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
		if len(rels) > 1 {
			joins = append(joins, joinInfo{kind: sqlast.JoinCross})
		}
	}
	for _, jc := range n.Joins {
		r, err := e.buildRelation(jc.Table)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
		joins = append(joins, joinInfo{kind: jc.Kind, on: jc.On})
	}
	if err := e.preQueryFaults(n, rels); err != nil {
		return nil, err
	}

	// Join / cross product with WHERE filtering.
	combos, err := e.joinRows(n, rels, joins)
	if err != nil {
		return nil, err
	}

	// Fault site (sqlite.norec-count-mismatch): a star-projection SELECT
	// with a WHERE clause drops its first matching row — the optimized
	// query shape NoREC compares, and one PQS never generates (pivot
	// queries always name their result columns).
	if e.d == dialect.SQLite && e.fs.Has(faults.NorecCountMismatch) &&
		n.Where != nil && len(combos) > 0 {
		for _, rc := range n.Cols {
			if rc.Star {
				combos = combos[1:]
				break
			}
		}
	}

	// GROUP BY / aggregates.
	outCols, outRows, err := e.project(n, rels, combos)
	if err != nil {
		return nil, err
	}

	if n.Distinct {
		outRows = e.distinct(outRows)
	}
	if len(n.OrderBy) > 0 {
		// Top-K: ORDER BY + small constant LIMIT keeps the k best rows in a
		// bounded heap instead of sorting everything (agg.go). Ineligible
		// shapes fall through to the full stable sort.
		handled := false
		if !e.noHashAgg && n.Limit != nil {
			handled, outRows, err = e.orderByTopK(n, rels, outRows)
			if err != nil {
				return nil, err
			}
		}
		if !handled {
			if err := e.orderBy(n, rels, outRows, combos); err != nil {
				return nil, err
			}
		}
	}
	outRows, err = e.applyLimit(n, outRows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: outCols, Rows: outRows}, nil
}

// buildRelation materializes one FROM source.
func (e *Engine) buildRelation(tr sqlast.TableRef) (*relation, error) {
	t, ok := e.cat.Table(tr.Name)
	if !ok {
		return nil, xerr.New(xerr.CodeNoObject, "no such table: %s", tr.Name)
	}
	name := tr.Name
	if tr.Alias != "" {
		name = tr.Alias
	}
	if t.IsView {
		res, err := e.execSelect(t.ViewDef)
		if err != nil {
			return nil, err
		}
		r := e.mem.relation(relation{name: name, columns: t.Columns})
		hdrs := e.mem.rows.alloc(len(res.Rows))
		r.rows = e.mem.ptrs.alloc(len(res.Rows))
		for i, row := range res.Rows {
			hdrs[i].vals = row
			r.rows[i] = &hdrs[i]
		}
		e.cov.hit("dql.view-scan")
		return r, nil
	}
	r := e.mem.relation(relation{name: name, table: t.Name, columns: t.Columns, engine: t.Engine})
	td := e.data[lower(t.Name)]
	st := e.tableState(t.Name)

	// Fault site (sqlite.rowid-alias-crash): scanning a table after
	// RENAME COLUMN dereferences a stale column slot.
	if e.d == dialect.SQLite && e.fs.Has(faults.RowidAliasCrash) && st.renamedColumn {
		panic(crashPanic{site: "rowid_alias_resolve"})
	}

	heap := td.Rows()
	// Postgres inheritance: parent scans include children (Listing 15).
	var leaves []*schema.Table
	n := len(heap)
	if e.d == dialect.Postgres && !tr.Only && len(t.Children) > 0 {
		leaves = e.cat.InheritanceLeaves(t)[1:]
		for _, leaf := range leaves {
			n += e.data[lower(leaf.Name)].Len()
		}
	}
	// The statement slabs back the row headers (one *rowVals per heap
	// row per query adds up fast in campaign hot loops).
	hdrs := e.mem.rows.carve(n)
	r.rows = e.mem.ptrs.carve(n)
	for _, row := range heap {
		// Fault site (generic.insert-visibility): the most recent insert
		// is invisible to scans.
		if e.d == dialect.MySQL && e.fs.Has(faults.InsertVisibility) && row.Rowid == st.lastInsert {
			continue
		}
		hdrs = append(hdrs, rowVals{rowid: row.Rowid, vals: row.Vals})
		r.rows = append(r.rows, &hdrs[len(hdrs)-1])
	}

	if leaves != nil {
		for _, leaf := range leaves {
			childTD := e.data[lower(leaf.Name)]
			for _, row := range childTD.Rows() {
				proj := e.mem.vals.alloc(len(t.Columns))
				for ci := range t.Columns {
					cci := leaf.ColumnIndex(t.Columns[ci].Name)
					if cci >= 0 && cci < len(row.Vals) {
						proj[ci] = row.Vals[cci]
					} else {
						proj[ci] = sqlval.Null()
					}
				}
				hdrs = append(hdrs, rowVals{rowid: -row.Rowid, vals: proj})
				r.rows = append(r.rows, &hdrs[len(hdrs)-1])
			}
		}
		e.cov.hit("dql.inheritance-scan")
	}
	return r, nil
}

// preQueryFaults raises the error-oracle faults that trigger on SELECT.
func (e *Engine) preQueryFaults(n *sqlast.Select, rels []*relation) error {
	for _, r := range rels {
		if r.table == "" {
			continue
		}
		st := e.tableState(r.table)
		// Fault site (postgres.stats-bitmapset, Listing 16).
		if e.d == dialect.Postgres && e.fs.Has(faults.StatsBitmapset) && st.hasStats && st.analyzed {
			for _, ix := range e.cat.IndexesOn(r.table) {
				for _, p := range ix.Parts {
					if _, bare := p.X.(*sqlast.ColumnRef); !bare {
						return xerr.New(xerr.CodeInternal, "negative bitmapset member not allowed")
					}
				}
			}
		}
		// Fault site (postgres.index-null-value, Listing 17): a column
		// indexed before the last UPDATE holds NULLs the index missed.
		if e.d == dialect.Postgres && e.fs.Has(faults.IndexNullValue) && n.Where != nil {
			for _, ix := range e.cat.IndexesOn(r.table) {
				if st.updateSeq <= ix.BuildSeq {
					continue
				}
				for _, p := range ix.Parts {
					cr, bare := p.X.(*sqlast.ColumnRef)
					if !bare {
						continue
					}
					ci := 0
					if t, ok := e.cat.Table(r.table); ok {
						ci = t.ColumnIndex(cr.Column)
					}
					if ci < 0 {
						continue
					}
					if !whereMentionsColumn(n.Where, cr.Column) {
						continue
					}
					// Inspect the heap, not the (possibly index-restricted)
					// relation: the fault is about stored index state.
					td := e.data[lower(r.table)]
					if td == nil {
						continue
					}
					for _, row := range td.Rows() {
						if ci < len(row.Vals) && row.Vals[ci].IsNull() {
							return xerr.New(xerr.CodeInternal, "found unexpected null value in index %q", ix.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

func whereMentionsColumn(where sqlast.Expr, col string) bool {
	found := false
	sqlast.WalkExprs(where, func(x sqlast.Expr) bool {
		if cr, ok := x.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, col) {
			found = true
		}
		return true
	})
	return found
}

// planCandidates runs access-path selection for a single-table query and
// returns the candidate rowids the chosen path visits. restricted=false
// means a full heap scan was chosen. Candidates are a superset of the
// final answer in a correct engine; the residual WHERE filter still runs.
func (e *Engine) planCandidates(n *sqlast.Select, t *schema.Table, relName string) (rowids []int64, restricted bool) {
	if n.Where == nil && !n.Distinct {
		return nil, false
	}
	st := e.tableState(t.Name)

	// Partial-index enumeration: usable when the WHERE clause implies the
	// index predicate.
	if n.Where != nil {
		if ix := e.impliedPartialIndex(n.Where, t.Name); ix != nil {
			e.cov.hit("plan.partial-index-scan")
			return e.idxRowids(ix), true
		}
	}

	// Fault site (sqlite.skip-scan-distinct, Listing 6): after ANALYZE, a
	// DISTINCT query uses a skip-scan over a multi-column index and drops
	// rows whose leading key repeats.
	if e.d == dialect.SQLite && e.fs.Has(faults.SkipScanDistinct) && n.Distinct && st.analyzed {
		for _, ix := range e.cat.IndexesOn(t.Name) {
			if ix.Where != nil || len(ix.Parts) < 2 {
				continue
			}
			ixd := e.idx[lower(ix.Name)]
			if ixd == nil {
				continue
			}
			var keep []int64
			var prevLead sqlval.Value
			first := true
			for _, entry := range ixd.Entries() {
				if !first && sqlval.Compare(entry.Key[0], prevLead, sqlval.CollBinary) == 0 {
					continue // bogus skip
				}
				first = false
				prevLead = entry.Key[0]
				keep = append(keep, entry.Rowid)
			}
			return keep, true
		}
	}

	// Cost-based access-path selection: full scan vs index point lookup vs
	// index range scan, by simple row-count costing (see plan.go).
	if path := e.chooseAccessPath(n, t, relName); path != nil {
		switch path.Kind {
		case PathIndexEq:
			e.cov.hit("plan.index-eq-lookup")
		case PathIndexRange:
			e.cov.hit("plan.index-range-scan")
		}
		return e.executePath(path), true
	}
	if n.Where != nil {
		e.cov.hit("plan.full-scan")
	}
	return nil, false
}

// buildPlannedRelation materializes a single FROM source through the
// planner: when an index path is chosen, only the candidate rowids are
// fetched from the heap — point lookups cost O(log n), not O(n).
func (e *Engine) buildPlannedRelation(n *sqlast.Select, tr sqlast.TableRef) (*relation, error) {
	t, ok := e.cat.Table(tr.Name)
	if !ok {
		return nil, xerr.New(xerr.CodeNoObject, "no such table: %s", tr.Name)
	}
	if !e.plannable(t) {
		return e.buildRelation(tr)
	}
	name := tr.Name
	if tr.Alias != "" {
		name = tr.Alias
	}
	rowids, restricted := e.planCandidates(n, t, name)
	if !restricted {
		return e.buildRelation(tr)
	}
	st := e.tableState(t.Name)
	// Fault site (sqlite.rowid-alias-crash): resolving rows after RENAME
	// COLUMN dereferences a stale column slot, on any access path.
	if e.d == dialect.SQLite && e.fs.Has(faults.RowidAliasCrash) && st.renamedColumn {
		panic(crashPanic{site: "rowid_alias_resolve"})
	}
	td := e.data[lower(t.Name)]
	r := e.mem.relation(relation{name: name, table: t.Name, columns: t.Columns, engine: t.Engine})
	// Deduplicate and fetch in rowid order, matching heap-scan order.
	sorted := append([]int64(nil), rowids...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	// The statement slabs back the fetched row headers (room fixed up
	// front so the taken pointers stay valid).
	hdrs := e.mem.rows.carve(len(sorted))
	r.rows = e.mem.ptrs.carve(len(sorted))
	var prev int64
	for i, rid := range sorted {
		if i > 0 && rid == prev {
			continue
		}
		prev = rid
		row, ok := td.Get(rid)
		if !ok {
			continue // dangling index entry (stale-index fault class)
		}
		// Fault site (generic.insert-visibility): the most recent insert
		// is invisible to scans.
		if e.d == dialect.MySQL && e.fs.Has(faults.InsertVisibility) && row.Rowid == st.lastInsert {
			continue
		}
		hdrs = append(hdrs, rowVals{rowid: row.Rowid, vals: row.Vals})
		r.rows = append(r.rows, &hdrs[len(hdrs)-1])
	}
	return r, nil
}

// predicateImplies reports whether a WHERE clause, split into its AND
// conjuncts with their keys (schema.Catalog.PredicateKey, rendered back to
// back into keys; conjunct i's ends at ends[i]), implies the partial
// index's predicate. The correct engine is deliberately conservative:
// structural equality of the predicate with one of the conjuncts.
func (e *Engine) predicateImplies(conjs []sqlast.Expr, keys []byte, ends []int, p schema.PartialIndex) bool {
	start := 0
	for i, conj := range conjs {
		if string(keys[start:ends[i]]) == p.Key {
			return true
		}
		start = ends[i]
		// Fault site (sqlite.partial-index-not-null, Listing 1): the
		// planner assumes `col IS NOT <literal>` implies `col NOT NULL`.
		if e.d == dialect.SQLite && e.fs.Has(faults.PartialIndexNotNull) {
			if b, ok := conj.(*sqlast.Binary); ok && b.Op == sqlast.OpIsNot {
				if cr, ok := stripCollate(b.L).(*sqlast.ColumnRef); ok {
					if lit, ok := b.R.(*sqlast.Literal); ok && !lit.Val.IsNull() {
						if u, ok := p.Where.(*sqlast.Unary); ok && u.Op == sqlast.OpNotNull {
							if pcr, ok := stripCollate(u.X).(*sqlast.ColumnRef); ok &&
								strings.EqualFold(pcr.Column, cr.Column) {
								return true
							}
						}
					}
				}
			}
		}
	}
	return false
}

func stripCollate(e sqlast.Expr) sqlast.Expr {
	for {
		c, ok := e.(*sqlast.Collate)
		if !ok {
			return e
		}
		e = c.X
	}
}

// appendConjuncts appends the AND conjuncts of e to dst. Callers pass a
// stack buffer, so splitting a WHERE clause allocates nothing.
func appendConjuncts(dst []sqlast.Expr, e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
}

// idxRowids enumerates every rowid in an index.
func (e *Engine) idxRowids(ix *schema.Index) []int64 {
	ixd := e.idx[lower(ix.Name)]
	if ixd == nil {
		return nil
	}
	var out []int64
	for _, entry := range ixd.Entries() {
		out = append(out, entry.Rowid)
	}
	return out
}

// joinRows enumerates filtered row combinations.
func (e *Engine) joinRows(n *sqlast.Select, rels []*relation, joins []joinInfo) ([][]*rowVals, error) {
	// FROM-less SELECT evaluates over a single empty row (SELECT 1).
	if len(rels) == 0 {
		combos := e.mem.combos.alloc(1)
		if n.Where == nil {
			return combos, nil
		}
		return e.filterCombos(n, rels, combos)
	}
	// Fault site (generic.join-predicate-pushdown): with two FROM tables
	// and a WHERE touching only the second, the "pushdown" also prunes
	// the first table to a single row.
	if e.d == dialect.MySQL && e.fs.Has(faults.JoinPredicatePushdown) &&
		len(rels) == 2 && n.Where != nil && len(n.Joins) == 0 {
		refs := map[string]bool{}
		for _, c := range sqlast.ColumnsUsed(n.Where) {
			if c.Table != "" {
				refs[strings.ToLower(c.Table)] = true
			}
		}
		if len(refs) == 1 && refs[strings.ToLower(rels[1].name)] && len(rels[0].rows) > 1 {
			rels[0].rows = rels[0].rows[:1]
		}
	}

	// Start with the first relation's rows: single-element combos over
	// the relation's row list itself.
	first := rels[0].rows
	combos := e.mem.combos.alloc(len(first))
	for ri := range first {
		combos[ri] = first[ri : ri+1 : ri+1]
	}
	scratch := e.mem.ptrs.carve(len(rels))
	crossOK := e.crossPrefilterOK(n, rels)
	for i := 1; i < len(rels); i++ {
		j := joins[i-1]
		// The ON condition is bound once per join level — against the
		// layout prefix visible at this level, so unqualified-name
		// resolution (and its ambiguity rules) match the tree-walk env —
		// and the bound clause runs per row pair. Binding happens
		// before strategy dispatch so compile-time errors (missing or
		// ambiguous columns) are identical on every join path.
		var onEval *exprEval
		var onTest exprFn
		if j.on != nil {
			onEval = e.newExprEval(rels[:i+1])
			var err error
			onTest, err = onEval.bind(j.on)
			if err != nil {
				return nil, err
			}
		}
		// Strategy selection: hash or index-lookup when the level has
		// usable equality keys and the cost model favors them; the nested
		// loop otherwise (see join.go for the eligibility rules).
		a := e.analyzeJoin(n, rels, j, i, crossOK)
		strat := JoinNested
		if a != nil {
			strat, _ = chooseJoinStrategy(a, float64(len(combos)), float64(len(rels[i].rows)))
			if strat == JoinHash && e.d == dialect.Postgres &&
				!pgJoinClassesCompatible(a, rels, i) {
				strat = JoinNested
			}
		}
		lv := &joinLevel{n: n, rels: rels, level: i, j: j,
			onEval: onEval, onTest: onTest, ptrs: &e.mem.ptrs, scratch: &scratch}
		// Each combo keeps at most every inner row, or one NULL extension.
		out := e.mem.combos.carve(len(combos) * (len(rels[i].rows) + 1))
		var err error
		switch strat {
		case JoinHash:
			e.cov.hit("join.hash")
			out, err = e.hashJoinLevel(lv, a, combos, out)
		case JoinIndexLookup:
			e.cov.hit("join.index-lookup")
			out, err = e.indexJoinLevel(lv, a, combos, out)
		default:
			out, err = e.nestedJoinLevel(lv, combos, out)
		}
		if err != nil {
			return nil, err
		}
		combos = e.mem.combos.fit(out)
	}

	if n.Where == nil {
		return combos, nil
	}
	return e.filterCombos(n, rels, combos)
}

func hasNullVal(row *rowVals) bool {
	for _, v := range row.vals {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// filterCombos applies the WHERE clause to joined row combinations.
func (e *Engine) filterCombos(n *sqlast.Select, rels []*relation, combos [][]*rowVals) ([][]*rowVals, error) {
	// Fault site (generic.where-true-drop): the filter loop skips the
	// first matching row when the WHERE root is an OR over an indexed
	// column.
	dropFirst := false
	if e.d == dialect.SQLite && e.fs.Has(faults.WhereTrueDrop) {
		if b, ok := n.Where.(*sqlast.Binary); ok && b.Op == sqlast.OpOr {
			for _, c := range sqlast.ColumnsUsed(n.Where) {
				for _, r := range rels {
					if r.table == "" {
						continue
					}
					for _, ix := range e.cat.IndexesOn(r.table) {
						for _, p := range ix.Parts {
							if cr, ok := p.X.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, c.Column) {
								dropFirst = true
							}
						}
					}
				}
			}
		}
	}
	// The WHERE clause compiles once per statement; the per-combo cost is
	// a slot-bound program run, not a tree walk with name resolution.
	x := e.newExprEval(rels)
	test, err := x.bind(n.Where)
	if err != nil {
		return nil, err
	}
	out := e.mem.combos.carve(len(combos))
	for _, combo := range combos {
		x.setRow(combo)
		tb, err := test.bool()
		if err != nil {
			return nil, err
		}
		if tb != sqlval.TriTrue {
			continue
		}
		if dropFirst {
			dropFirst = false
			continue
		}
		out = append(out, combo)
	}
	return e.mem.combos.fit(out), nil
}

// aggNames maps the aggregate functions the executor handles onto their
// coverage keys.
var aggNames = coverageKeys("dql.aggregate.", "COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL")

// isAggregate reports whether a result column is an aggregate call. Scalar
// MIN/MAX with ≥2 args stay scalar (SQLite semantics).
func isAggregate(x sqlast.Expr) (*sqlast.FuncCall, bool) {
	fc, ok := x.(*sqlast.FuncCall)
	if !ok || aggNames[strings.ToUpper(fc.Name)] == "" {
		return nil, false
	}
	up := strings.ToUpper(fc.Name)
	if (up == "MIN" || up == "MAX") && len(fc.Args) != 1 {
		return nil, false
	}
	return fc, true
}

// outCol is one expanded result column of a projection.
type outCol struct {
	name string
	x    sqlast.Expr // nil for star expansion entries (direct value)
	rel  int         // star source relation
	col  int         // star source column
	// fn evaluates a scalar x against the current row (nil for star
	// entries and aggregates, which are computed per group).
	fn exprFn
}

// projCtx bundles the projection state shared between the grouped
// executors (the materialized baseline below and the streaming hash path
// in agg.go).
type projCtx struct {
	n         *sqlast.Select
	rels      []*relation
	cols      []outCol
	outNames  []string
	x         *exprEval
	groupKeys []sqlast.Expr
}

// project computes output columns and rows, handling GROUP BY and
// aggregates.
func (e *Engine) project(n *sqlast.Select, rels []*relation, combos [][]*rowVals) ([]string, [][]sqlval.Value, error) {
	// Expand result columns.
	ncols := 0
	for _, rc := range n.Cols {
		if !rc.Star {
			ncols++
			continue
		}
		for _, r := range rels {
			ncols += len(r.columns)
		}
	}
	cols := e.mem.cols.carve(ncols)
	hasAgg := false
	for i, rc := range n.Cols {
		if rc.Star {
			for ri, r := range rels {
				for ci := range r.columns {
					cols = append(cols, outCol{name: r.columns[ci].Name, x: nil, rel: ri, col: ci})
				}
			}
			continue
		}
		name := rc.Alias
		if name == "" {
			if cr, ok := rc.X.(*sqlast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = "col" + itoa(i)
			}
		}
		if _, ok := isAggregate(rc.X); ok {
			hasAgg = true
		}
		cols = append(cols, outCol{name: name, x: rc.X, rel: -1})
	}
	outNames := make([]string, len(cols))
	for i := range cols {
		outNames[i] = cols[i].name
	}

	// Listing 8 hijack: the double-quoted index part overrides the
	// renamed column's projected value under DISTINCT.
	hijack := func(combo []*rowVals) []*rowVals {
		if !n.Distinct || e.d != dialect.SQLite || !e.fs.Has(faults.DoubleQuoteIndex) {
			return combo
		}
		out := combo
		for ri, r := range rels {
			if r.table == "" {
				continue
			}
			st := e.tableState(r.table)
			if st.dqHijackCol < 0 || combo[ri] == nil {
				continue
			}
			if out[ri] == combo[ri] {
				cp := &rowVals{rowid: combo[ri].rowid, vals: append([]sqlval.Value{}, combo[ri].vals...)}
				if st.dqHijackCol < len(cp.vals) {
					cp.vals[st.dqHijackCol] = sqlval.Text(st.dqHijackVal)
				}
				if ri == 0 {
					out = append([]*rowVals{cp}, combo[1:]...)
				} else {
					out = append(append(append([]*rowVals{}, combo[:ri]...), cp), combo[ri+1:]...)
				}
			}
		}
		return out
	}

	// Bind every projected expression once (aggregates are computed per
	// group below and never through the scalar path).
	x := e.newExprEval(rels)
	for i, c := range cols {
		if c.x == nil {
			continue
		}
		if _, ok := isAggregate(c.x); ok {
			continue
		}
		fn, err := x.bind(c.x)
		if err != nil {
			return nil, nil, err
		}
		cols[i].fn = fn
	}

	evalRowInto := func(row []sqlval.Value, combo []*rowVals) error {
		combo = hijack(combo)
		x.setRow(combo)
		for i := range cols {
			c := &cols[i]
			if c.x == nil {
				if combo[c.rel] == nil || c.col >= len(combo[c.rel].vals) {
					row[i] = sqlval.Null()
				} else {
					row[i] = combo[c.rel].vals[c.col]
				}
				continue
			}
			v, err := c.fn.value()
			if err != nil {
				return err
			}
			row[i] = v
		}
		return nil
	}

	if len(n.GroupBy) == 0 && !hasAgg {
		// The result slabs back every output row: the per-row make() here
		// was the single largest allocation site in campaign profiles.
		rows := e.mem.resRows.alloc(len(combos))
		vals := e.mem.resVals.alloc(len(cols) * len(combos))
		for ci, combo := range combos {
			row := vals[ci*len(cols) : (ci+1)*len(cols) : (ci+1)*len(cols)]
			if err := evalRowInto(row, combo); err != nil {
				return nil, nil, err
			}
			rows[ci] = row
		}
		return outNames, rows, nil
	}

	// Grouping.
	e.cov.hit("dql.group-by")
	groupKeys := n.GroupBy
	// Fault site (postgres.inheritance-group-by, Listing 15): grouping an
	// inheritance scan collapses groups onto the first key only.
	if e.d == dialect.Postgres && e.fs.Has(faults.InheritanceGroupBy) && len(groupKeys) > 1 {
		inherited := false
		for _, r := range rels {
			if r.table == "" {
				continue
			}
			if t, ok := e.cat.Table(r.table); ok && len(t.Children) > 0 {
				inherited = true
			}
		}
		if inherited {
			groupKeys = groupKeys[:1]
		}
	}

	pc := &projCtx{n: n, rels: rels, cols: cols, outNames: outNames,
		x: x, groupKeys: groupKeys}
	if !e.noHashAgg {
		return e.projectGroupedHash(pc, combos)
	}
	return e.projectGroupedNaive(pc, combos)
}

// projectGroupedNaive is the materialized grouped/aggregate projection:
// groups resolve by a linear rowsEqual scan, every group retains its
// combos, and aggregates re-iterate them per column. It is the ablation
// baseline (disable=hashagg) the streaming path must match byte-for-byte.
func (e *Engine) projectGroupedNaive(pc *projCtx, combos [][]*rowVals) ([]string, [][]sqlval.Value, error) {
	n, rels, cols, x, groupKeys :=
		pc.n, pc.rels, pc.cols, pc.x, pc.groupKeys

	type group struct {
		key    []sqlval.Value
		combos [][]*rowVals
	}
	var groups []*group
	if len(groupKeys) == 0 {
		// Implicit single group over all rows (pure-aggregate query).
		groups = []*group{{combos: combos}}
	} else {
		keyFns := make([]exprFn, len(groupKeys))
		for i, gx := range groupKeys {
			fn, err := x.bind(gx)
			if err != nil {
				return nil, nil, err
			}
			keyFns[i] = fn
		}
		for _, combo := range combos {
			x.setRow(combo)
			key := make([]sqlval.Value, len(groupKeys))
			for i := range keyFns {
				v, err := keyFns[i].value()
				if err != nil {
					return nil, nil, err
				}
				key[i] = v
			}
			var g *group
			for _, cand := range groups {
				if rowsEqual(cand.key, key, sqlval.CollBinary) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{key: key}
				groups = append(groups, g)
			}
			g.combos = append(g.combos, combo)
		}
	}

	var havingTest exprFn
	if n.Having != nil {
		var err error
		havingTest, err = x.bind(n.Having)
		if err != nil {
			return nil, nil, err
		}
	}
	// Aggregate arguments bind lazily, on the first group that needs
	// them, and the program serves every later group (zero-group queries
	// never bind, as in the hash path's aggCol.bind).
	argFns := make([]exprFn, len(cols))
	var rows [][]sqlval.Value
	for _, g := range groups {
		rep := make([]*rowVals, len(rels)) // all-NULL row for empty groups
		if len(g.combos) > 0 {
			rep = g.combos[0]
		} else if len(groupKeys) > 0 {
			continue // only the implicit aggregate group may be empty
		}
		if havingTest.bound() {
			x.setRow(rep)
			tb, err := havingTest.bool()
			if err != nil {
				return nil, nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
		}
		row := make([]sqlval.Value, len(cols))
		for i := range cols {
			c := &cols[i]
			if c.x == nil {
				if rep[c.rel] == nil || c.col >= len(rep[c.rel].vals) {
					row[i] = sqlval.Null()
				} else {
					row[i] = rep[c.rel].vals[c.col]
				}
				continue
			}
			if fc, ok := isAggregate(c.x); ok {
				if len(rows) == 0 { // coverage: once per column per statement
					e.cov.hit(aggNames[strings.ToUpper(fc.Name)])
				}
				v, err := e.aggregate(fc, x, &argFns[i], g.combos)
				if err != nil {
					return nil, nil, err
				}
				row[i] = v
				continue
			}
			// setRow per column: the aggregate above iterates the group's
			// combos and leaves the evaluation state on the last one.
			x.setRow(rep)
			v, err := c.fn.value()
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return pc.outNames, rows, nil
}

// aggregate computes one aggregate over a group. The argument expression
// binds through the statement's exprEval into *argFn on first use, so one
// program serves every group of the statement.
func (e *Engine) aggregate(fc *sqlast.FuncCall, x *exprEval, argFn *exprFn, combos [][]*rowVals) (sqlval.Value, error) {
	up := strings.ToUpper(fc.Name)
	// Fault site (sqlite.agg-empty-group): an aggregate whose filtered
	// input is empty materializes a phantom row — COUNT reports 1,
	// SUM/MIN/MAX report 0 instead of NULL. PQS never aggregates; TLP's
	// partition aggregates hit empty inputs constantly (the `p IS NULL`
	// partition is usually empty).
	if e.d == dialect.SQLite && e.fs.Has(faults.AggEmptyGroup) && len(combos) == 0 {
		switch up {
		case "COUNT":
			return sqlval.Int(1), nil
		case "SUM", "MIN", "MAX":
			return sqlval.Int(0), nil
		}
	}
	if up == "COUNT" && len(fc.Args) == 0 {
		return sqlval.Int(int64(len(combos))), nil
	}
	if len(fc.Args) != 1 {
		return sqlval.Null(), xerr.New(xerr.CodeType, "aggregate %s expects one argument", fc.Name)
	}
	if !argFn.bound() {
		fn, err := x.bind(fc.Args[0])
		if err != nil {
			return sqlval.Null(), err
		}
		*argFn = fn
	}
	var vals []sqlval.Value
	for _, combo := range combos {
		x.setRow(combo)
		v, err := argFn.value()
		if err != nil {
			return sqlval.Null(), err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch up {
	case "COUNT":
		return sqlval.Int(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqlval.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := sqlval.Compare(v, best, sqlval.CollBinary)
			if (up == "MIN" && c < 0) || (up == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "TOTAL", "AVG":
		if len(vals) == 0 {
			if up == "TOTAL" {
				return sqlval.Real(0), nil
			}
			return sqlval.Null(), nil
		}
		allInt := up != "TOTAL" && up != "AVG"
		var isum int64
		var fsum float64
		for _, v := range vals {
			if e.d == dialect.Postgres && !v.IsNumeric() {
				return sqlval.Null(), xerr.New(xerr.CodeType, "%s(%s)", fc.Name, v.Kind())
			}
			var num sqlval.Value
			switch v.Kind() {
			case sqlval.KInt, sqlval.KUint, sqlval.KReal, sqlval.KBool:
				num = v
			default:
				num = sqlval.Real(0)
				if parsed, ok := sqlval.TextToNumeric(v.Display()); ok {
					num = parsed
				}
			}
			if num.Kind() == sqlval.KInt || num.Kind() == sqlval.KBool {
				isum += num.Int64()
				fsum += float64(num.Int64())
			} else {
				allInt = false
				fsum += num.AsFloat()
			}
		}
		switch up {
		case "AVG":
			return sqlval.Real(fsum / float64(len(vals))), nil
		case "TOTAL":
			return sqlval.Real(fsum), nil
		default:
			if allInt {
				return sqlval.Int(isum), nil
			}
			return sqlval.Real(fsum), nil
		}
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "aggregate %s", fc.Name)
}

// distinct deduplicates output rows, keeping each row's first occurrence.
func (e *Engine) distinct(rows [][]sqlval.Value) [][]sqlval.Value {
	e.cov.hit("dql.distinct")
	// Fault site (generic.distinct-collation): DISTINCT compares text
	// case-insensitively regardless of column collation.
	coll := sqlval.CollBinary
	if e.d == dialect.SQLite && e.fs.Has(faults.DistinctCollation) {
		coll = sqlval.CollNoCase
	}
	out, _ := e.dedup(rows, coll)
	return out
}

// resolveOrderKeys maps ORDER BY expressions onto output-column indexes: a
// result column holding the key's own node, else by rendered SQL (or
// positionally through star expansions). The full sort and the top-K path
// share it so both raise the identical resolution error.
func (e *Engine) resolveOrderKeys(n *sqlast.Select, rels []*relation) ([]int, error) {
	keyIdx := make([]int, len(n.OrderBy))
	for i, oi := range n.OrderBy {
		keyIdx[i] = sameNodeCol(n.Cols, oi.X)
		if keyIdx[i] < 0 {
			want := sqlast.ExprSQL(oi.X, e.d)
			for ci, rc := range n.Cols {
				if rc.Star {
					continue
				}
				if sqlast.ExprSQL(rc.X, e.d) == want || (rc.Alias != "" && rc.Alias == want) {
					keyIdx[i] = ci
					break
				}
			}
		}
		// Star projections: resolve a bare column reference positionally.
		if keyIdx[i] < 0 {
			if cr, ok := oi.X.(*sqlast.ColumnRef); ok {
				pos := 0
				for _, rc := range n.Cols {
					if !rc.Star {
						pos++
						continue
					}
					for _, r := range rels {
						for ci2 := range r.columns {
							if strings.EqualFold(r.columns[ci2].Name, cr.Column) &&
								(cr.Table == "" || strings.EqualFold(cr.Table, r.name)) {
								keyIdx[i] = pos
							}
							pos++
						}
					}
				}
			}
		}
		if keyIdx[i] < 0 {
			return nil, xerr.New(xerr.CodeNoObject, "ORDER BY term does not match any result column")
		}
	}
	return keyIdx, nil
}

// sameNodeCol returns the first result column holding x itself, or -1. It
// spares an ORDER BY key that shares its node with a result column (as
// generated queries do) from rendering any SQL, and picks what the text
// match would: the node renders the key's SQL, and an earlier column with
// that SQL computes the same values. Only an alias could match earlier
// with other values, so an alias before the node leaves the choice to the
// text match.
func sameNodeCol(cols []sqlast.ResultCol, x sqlast.Expr) int {
	for ci, rc := range cols {
		if rc.Alias != "" {
			return -1
		}
		if !rc.Star && rc.X == x {
			return ci
		}
	}
	return -1
}

// orderBy sorts output rows in place by the ORDER BY items. Sort keys are
// recomputed from output rows when the order expression matches an output
// column; otherwise they must be simple column references.
func (e *Engine) orderBy(n *sqlast.Select, rels []*relation, rows [][]sqlval.Value, combos [][]*rowVals) error {
	e.cov.hit("dql.order-by")
	keyIdx, err := e.resolveOrderKeys(n, rels)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i := range keyIdx {
			va, vb := rows[a][keyIdx[i]], rows[b][keyIdx[i]]
			c := sqlval.Compare(va, vb, sqlval.CollBinary)
			if n.OrderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

// applyLimit applies LIMIT/OFFSET.
func (e *Engine) applyLimit(n *sqlast.Select, rows [][]sqlval.Value) ([][]sqlval.Value, error) {
	if n.Limit == nil {
		return rows, nil
	}
	e.cov.hit("dql.limit")
	lv, err := e.constEval(n.Limit)
	if err != nil {
		return nil, err
	}
	limit := int(lv.Int64())
	if lv.Kind() != sqlval.KInt || limit < 0 {
		return nil, xerr.New(xerr.CodeType, "LIMIT must be a non-negative integer")
	}
	offset := 0
	if n.Offset != nil {
		ov, err := e.constEval(n.Offset)
		if err != nil {
			return nil, err
		}
		if ov.Kind() != sqlval.KInt || ov.Int64() < 0 {
			return nil, xerr.New(xerr.CodeType, "OFFSET must be a non-negative integer")
		}
		offset = int(ov.Int64())
	}
	if offset >= len(rows) {
		return nil, nil
	}
	rows = rows[offset:]
	if limit < len(rows) {
		rows = rows[:limit]
	}
	// Fault site (generic.order-by-limit-drop): ORDER BY + LIMIT loses
	// the last row when any emitted sort key is NULL.
	if e.d == dialect.Postgres && e.fs.Has(faults.OrderByLimitDrop) &&
		len(n.OrderBy) > 0 && len(rows) > 0 && anyRowHasNull(rows) {
		rows = rows[:len(rows)-1]
	}
	return rows, nil
}

// anyRowHasNull reports whether any emitted value is NULL, returning on
// the first hit (the fault gate above keeps the scan off sound engines).
func anyRowHasNull(rows [][]sqlval.Value) bool {
	for _, row := range rows {
		for _, v := range row {
			if v.IsNull() {
				return true
			}
		}
	}
	return false
}

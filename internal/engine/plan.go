package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// PathKind classifies the access path the planner chose for one relation.
type PathKind uint8

// Access path kinds.
const (
	// PathFullScan reads every heap row.
	PathFullScan PathKind = iota
	// PathIndexEq probes an index for entries equal to a key.
	PathIndexEq
	// PathIndexRange walks a contiguous index span between two bounds.
	PathIndexRange
	// PathPartialIndex enumerates a partial index whose predicate the
	// WHERE clause implies.
	PathPartialIndex
)

// String names the path kind in EXPLAIN output.
func (k PathKind) String() string {
	switch k {
	case PathIndexEq:
		return "index-eq"
	case PathIndexRange:
		return "index-range"
	case PathPartialIndex:
		return "partial-index"
	default:
		return "full-scan"
	}
}

// AccessPath is one relation's planned access, exposed through Plan() and
// the EXPLAIN statement.
type AccessPath struct {
	Table  string
	Kind   PathKind
	Index  string // empty for full scans
	Column string // driving column for eq/range paths
	// EqKey is the probe key of an index-eq path.
	EqKey []sqlval.Value
	// Lo/Hi bound an index-range path; nil ends are open.
	Lo, Hi *storage.Bound
	// Cost is the planner's row-count cost estimate; EstRows the number of
	// candidate rows the path visits.
	Cost    float64
	EstRows int
	// Join names the strategy joining this relation to the ones before it
	// ("HASH", "INDEX LOOKUP", "NESTED LOOP"); empty for the driving
	// relation and single-source queries. JoinCond renders the equality
	// keys (plus the probed index for lookups); JoinCost is the strategy's
	// estimated cost at planner row counts. The executor re-runs the same
	// choice with actual intermediate sizes — and, on Postgres, a runtime
	// value-class prescan — so a level shown as HASH here may still fall
	// back to the nested loop.
	Join     string
	JoinCond string
	JoinCost float64
	// Group/Order surface the statement-level aggregation and ordering
	// strategies on the first access path: "GROUP USING HASH (keys)" when
	// the streaming hash-aggregation executor will group the result, and
	// "ORDER USING TOP-K (k)" when ORDER BY + a constant LIMIT route
	// through the bounded-heap selection (which still falls back to a full
	// sort at runtime when k reaches the actual row count).
	Group string
	Order string
}

// Detail renders the path in EXPLAIN QUERY PLAN style.
func (p AccessPath) Detail() string {
	s := p.scanDetail()
	if p.Join != "" {
		s += " JOIN USING " + p.Join
		if p.JoinCond != "" {
			s += " (" + p.JoinCond + ")"
		}
		s += fmt.Sprintf(" (cost=%.1f)", p.JoinCost)
	}
	if p.Group != "" {
		s += " " + p.Group
	}
	if p.Order != "" {
		s += " " + p.Order
	}
	return s
}

func (p AccessPath) scanDetail() string {
	switch p.Kind {
	case PathIndexEq:
		return fmt.Sprintf("SEARCH %s USING INDEX %s (%s=?) (cost=%.1f rows=%d)",
			p.Table, p.Index, p.Column, p.Cost, p.EstRows)
	case PathIndexRange:
		var conds []string
		if p.Lo != nil {
			op := ">"
			if p.Lo.Inclusive {
				op = ">="
			}
			conds = append(conds, p.Column+op+"?")
		}
		if p.Hi != nil {
			op := "<"
			if p.Hi.Inclusive {
				op = "<="
			}
			conds = append(conds, p.Column+op+"?")
		}
		return fmt.Sprintf("SEARCH %s USING INDEX %s (%s) (cost=%.1f rows=%d)",
			p.Table, p.Index, strings.Join(conds, " AND "), p.Cost, p.EstRows)
	case PathPartialIndex:
		return fmt.Sprintf("SCAN %s USING PARTIAL INDEX %s (cost=%.1f rows=%d)",
			p.Table, p.Index, p.Cost, p.EstRows)
	default:
		return fmt.Sprintf("SCAN %s (cost=%.1f rows=%d)", p.Table, p.Cost, p.EstRows)
	}
}

// sargPred is one sargable predicate extracted from a WHERE conjunct:
// a comparison between a bare column and a non-NULL literal.
type sargPred struct {
	column  string
	coll    sqlval.Collation
	hasColl bool // a COLLATE clause fixed the comparison collation
	op      sqlast.BinOp
	val     sqlval.Value
}

// stripOneCollate unwraps a single COLLATE layer, reporting the collation.
func stripOneCollate(e sqlast.Expr) (sqlast.Expr, sqlval.Collation, bool) {
	if c, ok := e.(*sqlast.Collate); ok {
		return c.X, c.Coll, true
	}
	return e, sqlval.CollBinary, false
}

// flipOp mirrors a comparison operator for swapped operands.
func flipOp(op sqlast.BinOp) sqlast.BinOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	default:
		return op // Eq / Is / NullSafeEq are symmetric
	}
}

// sargable extracts the sargable predicates of a WHERE clause's top-level
// AND conjuncts for a single-relation query. relName/tableName resolve
// qualified column references.
func (e *Engine) sargable(where sqlast.Expr, relName, tableName string) []sargPred {
	if where == nil {
		return nil
	}
	sameRel := func(qual string) bool {
		return qual == "" || strings.EqualFold(qual, relName) || strings.EqualFold(qual, tableName)
	}
	var out []sargPred
	var buf [8]sqlast.Expr
	for _, conj := range appendConjuncts(buf[:0], where) {
		if bw, ok := conj.(*sqlast.Between); ok && !bw.Not {
			x, coll, hasColl := stripOneCollate(bw.X)
			cr, isCol := x.(*sqlast.ColumnRef)
			if !isCol || cr.MaybeString || !sameRel(cr.Table) {
				continue
			}
			lo, okLo := bw.Lo.(*sqlast.Literal)
			hi, okHi := bw.Hi.(*sqlast.Literal)
			if okLo && !lo.Val.IsNull() {
				out = append(out, sargPred{column: cr.Column, coll: coll, hasColl: hasColl, op: sqlast.OpGe, val: lo.Val})
			}
			if okHi && !hi.Val.IsNull() {
				out = append(out, sargPred{column: cr.Column, coll: coll, hasColl: hasColl, op: sqlast.OpLe, val: hi.Val})
			}
			continue
		}
		b, ok := conj.(*sqlast.Binary)
		if !ok {
			continue
		}
		switch b.Op {
		case sqlast.OpEq, sqlast.OpIs, sqlast.OpNullSafeEq,
			sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		default:
			continue
		}
		// Postgres IS compares truthiness, not values — never sargable.
		if b.Op == sqlast.OpIs && e.d == dialect.Postgres {
			continue
		}
		l, lColl, lHas := stripOneCollate(b.L)
		r, rColl, rHas := stripOneCollate(b.R)
		op := b.Op
		var colRef *sqlast.ColumnRef
		var lit *sqlast.Literal
		if cr, isCol := l.(*sqlast.ColumnRef); isCol {
			if lv, isLit := r.(*sqlast.Literal); isLit {
				colRef, lit = cr, lv
			}
		}
		if colRef == nil {
			if cr, isCol := r.(*sqlast.ColumnRef); isCol {
				if lv, isLit := l.(*sqlast.Literal); isLit {
					colRef, lit = cr, lv
					op = flipOp(op)
				}
			}
		}
		if colRef == nil || colRef.MaybeString || !sameRel(colRef.Table) || lit.Val.IsNull() {
			continue
		}
		// Mirror eval.comparisonCollation: explicit COLLATE wins (left
		// operand first), else the column's declared collation applies
		// (resolved later against the schema).
		coll, hasColl := sqlval.CollBinary, false
		switch {
		case lHas:
			coll, hasColl = lColl, true
		case rHas:
			coll, hasColl = rColl, true
		}
		out = append(out, sargPred{column: colRef.Column, coll: coll, hasColl: hasColl, op: op, val: lit.Val})
	}
	return out
}

// predCollation resolves a predicate's effective comparison collation the
// way the evaluator does: explicit COLLATE, else the column's declared
// collation, else the dialect default.
func (e *Engine) predCollation(p sargPred, col *schema.Column) sqlval.Collation {
	if p.hasColl {
		return p.coll
	}
	if col.Collate != sqlval.CollBinary {
		return col.Collate
	}
	if e.d == dialect.MySQL {
		return sqlval.CollNoCase
	}
	return sqlval.CollBinary
}

// chooseAccessPath runs simple row-count costing over the table's indexes
// against the sargable predicates and returns the cheapest access path.
// It returns nil when a full scan wins (or nothing else is eligible).
func (e *Engine) chooseAccessPath(n *sqlast.Select, t *schema.Table, relName string) *AccessPath {
	td := e.data[lower(t.Name)]
	if td == nil {
		return nil
	}
	rows := td.Len()
	preds := e.sargable(n.Where, relName, t.Name)
	if len(preds) == 0 {
		return nil
	}
	full := AccessPath{Table: relName, Kind: PathFullScan, Cost: float64(rows), EstRows: rows}
	best := full
	probe := 0.5 * math.Log2(float64(rows)+1)

	for _, ix := range e.cat.IndexesOn(t.Name) {
		if ix.Where != nil {
			continue
		}
		lead, bare := ix.LeadingColumn()
		if !bare {
			continue
		}
		ci := t.ColumnIndex(lead)
		if ci < 0 {
			continue
		}
		ixd := e.idx[lower(ix.Name)]
		if ixd == nil {
			continue
		}
		col := &t.Columns[ci]

		// Collect this column's predicates: an equality probe beats range
		// bounds; otherwise combine the first lower and upper bound.
		var eq *sargPred
		var lo, hi *storage.Bound
		for i := range preds {
			p := &preds[i]
			if !strings.EqualFold(p.column, lead) {
				continue
			}
			if !e.indexUsable(p, col, ix, ixd) {
				continue
			}
			switch p.op {
			case sqlast.OpEq, sqlast.OpIs, sqlast.OpNullSafeEq:
				if eq == nil {
					eq = p
				}
			case sqlast.OpGt, sqlast.OpGe:
				if lo == nil {
					lo = &storage.Bound{Key: p.val, Inclusive: p.op == sqlast.OpGe}
				}
			case sqlast.OpLt, sqlast.OpLe:
				if hi == nil {
					hi = &storage.Bound{Key: p.val, Inclusive: p.op == sqlast.OpLe}
				}
			}
		}
		switch {
		case eq != nil:
			key := eq.val
			if e.d == dialect.SQLite {
				// SQLite stores values affinity-converted, so the probe key
				// must be converted the same way.
				key = sqlval.ApplyAffinity(key, col.Affinity)
			}
			est := ixd.PrefixCount([]sqlval.Value{key})
			// Point probes fetch rows by rowid; weight them below
			// sequential scan rows so selective lookups always win.
			cost := probe + 0.5*float64(est)
			if cost < best.Cost {
				best = AccessPath{
					Table: relName, Kind: PathIndexEq, Index: ix.Name,
					Column: lead, EqKey: []sqlval.Value{key},
					Cost: cost, EstRows: est,
				}
			}
		case lo != nil || hi != nil:
			est := ixd.RangeCount(lo, hi)
			// Range spans read index entries plus fetched rows: weight them
			// like heap rows, so an unselective span loses to the full scan
			// by exactly the probe cost.
			cost := probe + float64(est)
			if cost < best.Cost {
				best = AccessPath{
					Table: relName, Kind: PathIndexRange, Index: ix.Name,
					Column: lead, Lo: lo, Hi: hi,
					Cost: cost, EstRows: est,
				}
			}
		}
	}
	if best.Kind == PathFullScan {
		return nil
	}
	return &best
}

// indexUsable reports whether an index can soundly serve a predicate in
// this dialect: the candidate set it yields must be a superset of the rows
// the residual WHERE filter would accept.
func (e *Engine) indexUsable(p *sargPred, col *schema.Column, ix *schema.Index, ixd *storage.IndexData) bool {
	isRange := p.op == sqlast.OpLt || p.op == sqlast.OpLe || p.op == sqlast.OpGt || p.op == sqlast.OpGe
	declared := ix.Parts[0].Collate
	// Range scans need the physical order ascending to map bounds onto a
	// contiguous span.
	if isRange && ix.Parts[0].Desc {
		return false
	}
	switch e.d {
	case dialect.SQLite:
		qc := e.predCollation(*p, col)
		if isRange {
			// Ordering must agree exactly with the comparison collation.
			return declared == qc
		}
		// Equality tolerates a coarser index collation: its equality
		// classes then contain the query's. Fault site
		// (sqlite.planner-collation-confusion): the check is skipped and a
		// differently-ordered index serves the lookup.
		if e.fs.Has(faults.PlannerCollationConfusion) {
			return true
		}
		return declared == qc || qc == sqlval.CollBinary
	case dialect.MySQL:
		// MySQL coerces text to numbers in comparisons, so raw index order
		// only agrees with comparison order when every key is numeric.
		return numericKind(p.val) && !ix.Parts[0].Desc && ixd.NumericLeadingOnly()
	default: // Postgres: strict typing, per-class comparisons
		if ix.Parts[0].Desc {
			return false
		}
		if numericKind(p.val) {
			return ixd.NumericLeadingOnly()
		}
		if p.val.Kind() == sqlval.KText {
			return e.predCollation(*p, col) == declared && ixd.TextLeadingOnly()
		}
		return false
	}
}

func numericKind(v sqlval.Value) bool {
	switch v.Kind() {
	case sqlval.KInt, sqlval.KUint, sqlval.KReal, sqlval.KBool:
		return true
	}
	return false
}

// executePath materializes the candidate rowids of a chosen index path.
func (e *Engine) executePath(p *AccessPath) []int64 {
	ixd := e.idx[lower(p.Index)]
	if ixd == nil {
		return nil
	}
	switch p.Kind {
	case PathIndexEq:
		return ixd.EqualPrefix(p.EqKey)
	case PathIndexRange:
		lo, hi := p.Lo, p.Hi
		// Fault site (sqlite.range-scan-boundary): the seek target is off
		// by one entry — inclusive bounds behave as exclusive, dropping
		// rows that sit exactly on a boundary.
		if e.d == dialect.SQLite && e.fs.Has(faults.RangeScanBoundary) {
			if lo != nil && lo.Inclusive {
				lo = &storage.Bound{Key: lo.Key}
			}
			if hi != nil && hi.Inclusive {
				hi = &storage.Bound{Key: hi.Key}
			}
		}
		return ixd.Range(lo, hi)
	}
	return nil
}

// Plan reports the access path the planner would choose for each FROM
// source of a SELECT, without executing it — the programmatic form of the
// EXPLAIN statement.
func (e *Engine) Plan(sel *sqlast.Select) ([]AccessPath, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.planSelect(sel)
}

// PlanSQL parses src as a single SELECT and returns its plan.
func (e *Engine) PlanSQL(src string) ([]AccessPath, error) {
	st, err := sqlparse.ParseOne(src, e.d)
	if err != nil {
		return nil, xerr.New(xerr.CodeSyntax, "%v", err)
	}
	sel, ok := st.(*sqlast.Select)
	if !ok {
		return nil, xerr.New(xerr.CodeUnsupported, "Plan supports SELECT, got %s", st.Kind())
	}
	return e.Plan(sel)
}

// planSelect computes access paths without taking the engine lock (the
// EXPLAIN executor already holds it).
func (e *Engine) planSelect(sel *sqlast.Select) ([]AccessPath, error) {
	var refs []sqlast.TableRef
	refs = append(refs, sel.From...)
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
	}
	var out []AccessPath
	for _, tr := range refs {
		t, ok := e.cat.Table(tr.Name)
		if !ok {
			return nil, xerr.New(xerr.CodeNoObject, "no such table: %s", tr.Name)
		}
		name := tr.Name
		if tr.Alias != "" {
			name = tr.Alias
		}
		rows := 0
		if td := e.data[lower(t.Name)]; td != nil {
			rows = td.Len()
		}
		full := AccessPath{Table: name, Kind: PathFullScan, Cost: float64(rows), EstRows: rows}
		// Index selection applies only to single-source scans of plannable
		// base tables, matching the executor.
		if len(refs) != 1 || !e.plannable(t) {
			out = append(out, full)
			continue
		}
		if ix := e.impliedPartialIndex(sel.Where, t.Name); ix != nil {
			est := e.idxLen(ix.Name)
			out = append(out, AccessPath{
				Table: name, Kind: PathPartialIndex, Index: ix.Name,
				Cost: float64(est), EstRows: est,
			})
			continue
		}
		if p := e.chooseAccessPath(sel, t, name); p != nil {
			out = append(out, *p)
		} else {
			out = append(out, full)
		}
	}
	if len(out) == 0 {
		// FROM-less SELECT: a single constant row.
		out = append(out, AccessPath{Table: "(no table)", Kind: PathFullScan})
	}
	if len(refs) > 1 {
		e.annotateJoins(sel, out)
	}
	e.annotateAggOrder(sel, out)
	return out, nil
}

// annotateAggOrder records the aggregation and ordering strategies on the
// statement's first access path, mirroring the executor's dispatch in
// project/orderByTopK (agg.go).
func (e *Engine) annotateAggOrder(sel *sqlast.Select, out []AccessPath) {
	if e.noHashAgg || len(out) == 0 {
		return
	}
	if len(sel.GroupBy) > 0 {
		keys := make([]string, len(sel.GroupBy))
		for i, gx := range sel.GroupBy {
			keys[i] = sqlast.ExprSQL(gx, e.d)
		}
		out[0].Group = "GROUP USING HASH (" + strings.Join(keys, ", ") + ")"
	}
	if len(sel.OrderBy) > 0 && sel.Limit != nil {
		if lv, err := e.constEval(sel.Limit); err == nil && lv.Kind() == sqlval.KInt && lv.Int64() >= 0 {
			k := lv.Int64()
			ok := true
			if sel.Offset != nil {
				ov, err := e.constEval(sel.Offset)
				if err != nil || ov.Kind() != sqlval.KInt || ov.Int64() < 0 {
					ok = false
				} else {
					k += ov.Int64()
				}
			}
			if ok && k > 0 {
				out[0].Order = fmt.Sprintf("ORDER USING TOP-K (%d)", k)
			}
		}
	}
}

// annotateJoins runs the executor's per-level join analysis and strategy
// choice over planner row estimates and records the result on each joined
// relation's access path. Views contribute their declared columns but no
// rows (EXPLAIN never executes a view), so their row estimate is zero.
func (e *Engine) annotateJoins(sel *sqlast.Select, out []AccessPath) {
	rels, joins := e.headerRelations(sel)
	if rels == nil || len(rels) != len(out) {
		return
	}
	crossOK := e.crossPrefilterOK(sel, rels)
	estL := float64(out[0].EstRows)
	for i := 1; i < len(rels); i++ {
		r := float64(out[i].EstRows)
		a := e.analyzeJoin(sel, rels, joins[i-1], i, crossOK)
		strat, cost := JoinNested, joinCost(JoinNested, estL, r)
		if a != nil {
			strat, cost = chooseJoinStrategy(a, estL, r)
		}
		out[i].Join = strat.String()
		out[i].JoinCond = renderJoinKeys(a, rels, i, strat)
		out[i].JoinCost = cost
		// Intermediate-size estimate: equi-joins keep at most one match per
		// key on the dominant side; cross/theta levels multiply.
		if a != nil {
			estL = math.Max(estL, r)
		} else {
			estL *= r
		}
	}
}

// headerRelations builds column-metadata-only relations for planning: same
// shape the executor resolves, minus row materialization. Returns nil when
// a source does not resolve (execution will raise the error instead).
func (e *Engine) headerRelations(sel *sqlast.Select) ([]*relation, []joinInfo) {
	var rels []*relation
	var joins []joinInfo
	add := func(tr sqlast.TableRef) bool {
		t, ok := e.cat.Table(tr.Name)
		if !ok {
			return false
		}
		name := tr.Name
		if tr.Alias != "" {
			name = tr.Alias
		}
		table := t.Name
		if t.IsView {
			table = ""
		}
		rels = append(rels, &relation{name: name, table: table, columns: t.Columns, engine: t.Engine})
		return true
	}
	for _, tr := range sel.From {
		if !add(tr) {
			return nil, nil
		}
		if len(rels) > 1 {
			joins = append(joins, joinInfo{kind: sqlast.JoinCross})
		}
	}
	for _, jc := range sel.Joins {
		if !add(jc.Table) {
			return nil, nil
		}
		joins = append(joins, joinInfo{kind: jc.Kind, on: jc.On})
	}
	return rels, joins
}

// renderJoinKeys formats a join analysis's equality keys for EXPLAIN.
func renderJoinKeys(a *joinAnalysis, rels []*relation, level int, strat JoinStrategy) string {
	if a == nil {
		return ""
	}
	key := func(k equiKey) string {
		return fmt.Sprintf("%s.%s = %s.%s",
			rels[k.lRel].name, rels[k.lRel].columns[k.lCol].Name,
			rels[level].name, rels[level].columns[k.rCol].Name)
	}
	if strat == JoinIndexLookup && a.idx != nil {
		return "INDEX " + a.idx.Name + ": " + key(a.idxKey)
	}
	parts := make([]string, 0, len(a.keys))
	for _, k := range a.keys {
		parts = append(parts, key(k))
	}
	return strings.Join(parts, " AND ")
}

// plannable reports whether index access paths may serve a table: views
// and inheritance parents (whose scans include child rows absent from the
// parent's indexes) always take full scans.
func (e *Engine) plannable(t *schema.Table) bool {
	return !e.noPlanner && !t.IsView && len(t.Children) == 0
}

// impliedPartialIndex returns the first partial index, by name, whose
// predicate the WHERE clause implies. The conjuncts' keys are rendered once
// per call, and only for a table that has a partial index.
func (e *Engine) impliedPartialIndex(where sqlast.Expr, table string) *schema.Index {
	if where == nil {
		return nil
	}
	partial := e.cat.PartialIndexesOn(table)
	if len(partial) == 0 {
		return nil
	}
	var buf [8]sqlast.Expr
	var endBuf [8]int
	conjs := appendConjuncts(buf[:0], where)
	// The conjuncts' keys, rendered back to back into the engine's key
	// buffer: conjunct i's key ends at ends[i].
	keys, ends := e.predKeys[:0], endBuf[:0]
	for _, conj := range conjs {
		keys = sqlast.AppendPredicateKey(keys, conj, e.d)
		ends = append(ends, len(keys))
	}
	e.predKeys = keys
	for _, p := range partial {
		if e.predicateImplies(conjs, keys, ends, p) {
			return p.Index
		}
	}
	return nil
}

func (e *Engine) idxLen(name string) int {
	if ixd := e.idx[lower(name)]; ixd != nil {
		return ixd.Len()
	}
	return 0
}

// execExplain executes EXPLAIN: one detail row per planned FROM source.
func (e *Engine) execExplain(n *sqlast.Explain) (*Result, error) {
	e.cov.hit("dql.explain")
	var sels []*sqlast.Select
	switch t := n.Target.(type) {
	case *sqlast.Select:
		sels = []*sqlast.Select{t}
	case *sqlast.Compound:
		sels = t.Selects
	default:
		return nil, xerr.New(xerr.CodeUnsupported, "EXPLAIN supports SELECT, got %s", n.Target.Kind())
	}
	res := &Result{Columns: []string{"detail"}}
	for _, sel := range sels {
		paths, err := e.planSelect(sel)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			res.Rows = append(res.Rows, []sqlval.Value{sqlval.Text(p.Detail())})
		}
	}
	return res, nil
}

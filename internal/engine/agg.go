// Streaming hash aggregation and top-K ordering. project (query.go)
// dispatches grouped/aggregate projections here unless disable=hashagg:
//
//   - grouping: group membership resolves through the engine's keyTable
//     (keytable.go) over normalized byte keys instead of a linear rowsEqual
//     scan per input row. Key normalization COARSENS group equality
//     (rowsEqual-equal keys always share bytes; unequal keys may collide on
//     them), so every bucket match is re-verified by rowsEqual under
//     CollBinary — collisions cost time, never correctness. NULLs key on a
//     sentinel, matching SQL GROUP BY's NULLs-group-together semantics.
//   - aggregation: COUNT/COUNT(*)/SUM/AVG/MIN/MAX/TOTAL fold into per-group
//     streaming accumulators in a single pass over the input. No group
//     retains its combos; only one representative row (the group's first)
//     survives, for HAVING and non-aggregate output columns. Evaluation
//     errors are recorded per (group, column) cell and surfaced during the
//     output pass in the exact (group order, column order, row order) the
//     materialized path would surface them.
//   - ordering: when LIMIT k (+OFFSET) accompanies ORDER BY and k+offset is
//     smaller than the row count, a bounded max-heap keeps the k+offset best
//     rows instead of sorting everything. Stability is preserved by an
//     input-index tiebreak: among sort-key-equal rows, earlier input rows
//     win, exactly like sort.SliceStable.
//
// Emission order is byte-identical to the materialized path: groups emit in
// first-occurrence order, top-K results in full stable-sort order.
package engine

import (
	"sort"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// aggCol is one aggregate output column's shared (cross-group) state: the
// call, its lazily-bound argument program, and the arity/bind errors the
// materialized path would raise per group.
type aggCol struct {
	ci        int // index into the projection's cols
	fc        *sqlast.FuncCall
	name      string // canonical upper-case aggregate name
	op        aggOp  // name as an enum, for the per-row accumulate switch
	countStar bool
	arityErr  error
	// direct short-circuits the compiled program for a bare resolvable
	// column argument on fault-free engines (rel, col into the combo).
	direct   bool
	rel, col int
	bound    bool
	argFn    exprFn
	bindErr  error
}

// bind resolves the argument program (lazily: the materialized path binds
// per group inside the output loop, so zero-group queries never bind).
func (ac *aggCol) bind(x *exprEval) {
	if ac.bound {
		return
	}
	ac.bound = true
	ac.argFn, ac.bindErr = x.bind(ac.fc.Args[0])
}

// aggOp is the accumulate dispatch enum (the per-row hot path; string
// switches on the name would re-compare per input row).
type aggOp uint8

// Accumulator operations.
const (
	opCount aggOp = iota
	opMin
	opMax
	opSum
	opTotal
	opAvg
)

// aggOps maps canonical aggregate names onto their accumulate ops.
var aggOps = map[string]aggOp{
	"COUNT": opCount, "MIN": opMin, "MAX": opMax,
	"SUM": opSum, "TOTAL": opTotal, "AVG": opAvg,
}

// aggCell is one (group, aggregate column) accumulator.
type aggCell struct {
	seen    int64 // non-NULL argument count
	isum    int64
	fsum    float64
	allInt  bool
	seeded  bool // null-skip fault seeded this accumulator already
	hasBest bool
	best    sqlval.Value
	err     error // first evaluation error; poisons the cell
}

// hashAggGroup is one group's streaming state: its key, the representative
// (first) combo for HAVING and non-aggregate columns, the row count, and
// one accumulator per aggregate column. Crucially absent: the combos.
type hashAggGroup struct {
	key   []sqlval.Value
	rep   []*rowVals
	n     int64
	cells []aggCell
}

// appendAggKey appends one value's normalized key component for GROUP BY,
// DISTINCT and the set operators. The invariant mirrors appendJoinKey's:
// values Compare calls equal under coll (NULLs equal each other) must
// produce byte-identical components; the converse need not hold, since
// bucket matches re-verify with rowsEqual.
func appendAggKey(buf []byte, v sqlval.Value, coll sqlval.Collation) []byte {
	switch {
	case v.IsNull():
		return append(buf, 'n')
	case v.Kind() == sqlval.KText:
		buf = append(buf, 't')
		return append(buf, sqlval.CollKey(v.Str(), coll)...)
	case v.Kind() == sqlval.KBlob:
		buf = append(buf, 'x')
		return append(buf, v.BlobStr()...)
	default:
		// Numeric (incl. bool): one float rendering, negative zero folded.
		// Distinct huge integers can collide; rowsEqual disambiguates.
		return appendKeyFloat(buf, v.AsFloat())
	}
}

// projectGroupedHash is the streaming grouped/aggregate projection.
func (e *Engine) projectGroupedHash(pc *projCtx, combos [][]*rowVals) ([]string, [][]sqlval.Value, error) {
	e.cov.hit("dql.group-by-hash")
	n, rels, x := pc.n, pc.rels, pc.x

	// Fault site (sqlite.hash-agg-collation): TEXT group keys fold through
	// the source column's declared collation instead of binary bytes, and
	// bucket matches skip rowsEqual re-verification — NOCASE/RTRIM-equal
	// variants silently collapse into one group (whose representative row is
	// the first variant seen).
	collFault := e.d == dialect.SQLite && e.fs.Has(faults.HashAggCollation)
	keyColls := make([]sqlval.Collation, len(pc.groupKeys)) // zero value: CollBinary
	if collFault {
		for i, gx := range pc.groupKeys {
			if cr, ok := gx.(*sqlast.ColumnRef); ok && !cr.MaybeString {
				if ri, ci, amb := findColumn(rels, cr.Table, cr.Column); ri >= 0 && !amb {
					keyColls[i] = rels[ri].columns[ci].Collate
				}
			}
		}
	}

	// Key and aggregate-argument accessors: a bare resolvable column on a
	// fault-free engine reads its combo slot directly; anything else runs
	// the compiled program (identical machinery to the materialized path).
	directOK := e.fs.Empty()
	directRef := func(gx sqlast.Expr) (ri, ci int, ok bool) {
		cr, isRef := gx.(*sqlast.ColumnRef)
		if !directOK || !isRef || cr.MaybeString {
			return 0, 0, false
		}
		ri, ci, amb := findColumn(rels, cr.Table, cr.Column)
		return ri, ci, ri >= 0 && !amb
	}
	needEval := false
	type keyGetter struct {
		direct   bool
		rel, col int
		fn       exprFn
	}
	keyGets := make([]keyGetter, len(pc.groupKeys))
	for i, gx := range pc.groupKeys {
		if ri, ci, ok := directRef(gx); ok {
			keyGets[i] = keyGetter{direct: true, rel: ri, col: ci}
			continue
		}
		fn, err := x.bind(gx)
		if err != nil {
			return nil, nil, err
		}
		keyGets[i] = keyGetter{fn: fn}
		needEval = true
	}

	// Aggregate columns, in projection order. Arity errors are recorded, not
	// raised: the materialized path raises them per surviving group during
	// the output pass, after HAVING filtering.
	m := &e.mem
	aggCols := m.aggs.carve(len(pc.cols))
	aggAt := m.slots.alloc(len(pc.cols)) // cols index -> aggCols index (-1: scalar)
	for i := range aggAt {
		aggAt[i] = -1
	}
	for i, c := range pc.cols {
		if c.x == nil {
			continue
		}
		fc, ok := isAggregate(c.x)
		if !ok {
			continue
		}
		ac := aggCol{ci: i, fc: fc, name: strings.ToUpper(fc.Name)}
		ac.op = aggOps[ac.name]
		switch {
		case ac.name == "COUNT" && len(fc.Args) == 0:
			ac.countStar = true
		case len(fc.Args) != 1:
			ac.arityErr = xerr.New(xerr.CodeType, "aggregate %s expects one argument", fc.Name)
		default:
			if ri, ci, ok := directRef(fc.Args[0]); ok {
				ac.direct, ac.rel, ac.col = true, ri, ci
			} else {
				needEval = true
			}
		}
		aggAt[i] = int32(len(aggCols))
		aggCols = append(aggCols, ac)
	}
	aggCols = m.aggs.fit(aggCols)

	// Fault site (sqlite.agg-accumulator-null-skip): the streaming SUM/AVG
	// accumulator seeds itself from a leading NULL as if it were 0 instead
	// of skipping it, so all-NULL inputs aggregate to 0 instead of NULL.
	// Filtered queries only: TLP's partition aggregates hit it, the
	// unfiltered original doesn't.
	nullSkipFault := e.d == dialect.SQLite && e.fs.Has(faults.AggAccumulatorNullSkip) &&
		n.Where != nil

	// Groups and their keys and accumulators live in the statement slabs.
	// There are at most as many groups as combos (one for the implicit
	// group of a pure aggregate, which exists even over no rows).
	newGroup := func(key []sqlval.Value, rep []*rowVals) hashAggGroup {
		return hashAggGroup{key: key, rep: rep, cells: m.cells.alloc(len(aggCols))}
	}
	implicit := len(pc.groupKeys) == 0
	var groups []hashAggGroup
	if implicit {
		groups = m.groups.alloc(1)
		groups[0] = newGroup(nil, m.ptrs.alloc(len(rels)))
	} else {
		groups = m.groups.carve(len(combos))
	}

	// Group lookup goes through a keyTable whose items are group indexes:
	// the groups under a key come back in creation order and the first
	// rowsEqual one wins, exactly as the materialized path's linear scan.
	var tab keyTable
	if !implicit {
		tab = m.keyTable(len(combos), len(combos))
	}
	keyBuf := m.key
	keyScratch := m.vals.alloc(len(pc.groupKeys))
	for _, combo := range combos {
		if needEval {
			x.setRow(combo)
		}
		var g *hashAggGroup
		if implicit {
			g = &groups[0]
			if g.n == 0 {
				g.rep = combo
			}
		} else {
			keyBuf = keyBuf[:0]
			for i := range keyGets {
				var v sqlval.Value
				if kg := &keyGets[i]; kg.direct {
					// readDirect, inlined: this is the per-row hot path.
					if rv := combo[kg.rel]; rv != nil && kg.col < len(rv.vals) {
						v = rv.vals[kg.col]
					}
				} else {
					var err error
					v, err = kg.fn.value()
					if err != nil {
						return nil, nil, err
					}
				}
				keyScratch[i] = v
				keyBuf = append(appendAggKey(keyBuf, v, keyColls[i]), 0)
			}
			k := tab.find(keyBuf, true)
			for gi := tab.first(k); gi >= 0; gi = tab.after(gi) {
				if collFault || rowsEqual(groups[gi].key, keyScratch, sqlval.CollBinary) {
					g = &groups[gi]
					break
				}
			}
			if g == nil {
				key := m.vals.alloc(len(keyScratch))
				copy(key, keyScratch)
				tab.push(k, int32(len(groups)))
				groups = append(groups, newGroup(key, combo))
				g = &groups[len(groups)-1]
			}
		}
		g.n++
		for ai := range aggCols {
			ac := &aggCols[ai]
			if ac.countStar || ac.arityErr != nil {
				continue
			}
			cell := &g.cells[ai]
			if cell.err != nil {
				continue
			}
			var v sqlval.Value
			if ac.direct {
				// readDirect, inlined: this is the per-row hot path.
				if ac.rel < len(combo) && combo[ac.rel] != nil && ac.col < len(combo[ac.rel].vals) {
					v = combo[ac.rel].vals[ac.col]
				} else {
					v = sqlval.Null()
				}
			} else {
				ac.bind(x)
				if ac.bindErr != nil {
					continue
				}
				var err error
				v, err = ac.argFn.value()
				if err != nil {
					cell.err = err
					continue
				}
			}
			e.accumulate(ac, cell, v, nullSkipFault)
		}
	}

	// Output pass: groups in first-occurrence order, HAVING on the
	// representative row, cells finalized in column order — the same
	// (group, column) error order as the materialized path.
	var havingTest exprFn
	if n.Having != nil {
		var err error
		havingTest, err = x.bind(n.Having)
		if err != nil {
			return nil, nil, err
		}
	}
	m.key = keyBuf
	groups = m.groups.fit(groups)
	rows := m.resRows.carve(len(groups))
	for gi := range groups {
		g := &groups[gi]
		if havingTest.bound() {
			x.setRow(g.rep)
			tb, err := havingTest.bool()
			if err != nil {
				return nil, nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
		}
		row := m.resVals.alloc(len(pc.cols))
		for i := range pc.cols {
			c := &pc.cols[i]
			if c.x == nil {
				if g.rep[c.rel] == nil || c.col >= len(g.rep[c.rel].vals) {
					row[i] = sqlval.Null()
				} else {
					row[i] = g.rep[c.rel].vals[c.col]
				}
				continue
			}
			if ai := aggAt[i]; ai >= 0 {
				if len(rows) == 0 { // coverage: once per column per statement
					e.cov.hit(aggNames[aggCols[ai].name])
				}
				v, err := e.finalizeAgg(&aggCols[ai], &g.cells[ai], g.n, x)
				if err != nil {
					return nil, nil, err
				}
				row[i] = v
				continue
			}
			x.setRow(g.rep)
			v, err := c.fn.value()
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return pc.outNames, m.resRows.fit(rows), nil
}

// accumulate folds one non-finalized argument value into a cell, mirroring
// aggregate()'s per-value semantics exactly.
func (e *Engine) accumulate(ac *aggCol, cell *aggCell, v sqlval.Value, nullSkipFault bool) {
	if v.IsNull() {
		// Fault site (sqlite.agg-accumulator-null-skip), see above.
		if nullSkipFault && (ac.op == opSum || ac.op == opAvg) &&
			cell.seen == 0 && !cell.seeded {
			cell.seeded = true
			cell.seen = 1
		}
		return
	}
	switch ac.op {
	case opCount:
		cell.seen++
	case opMin, opMax:
		cell.seen++
		if !cell.hasBest {
			cell.hasBest, cell.best = true, v
			return
		}
		c := sqlval.Compare(v, cell.best, sqlval.CollBinary)
		if (ac.op == opMin && c < 0) || (ac.op == opMax && c > 0) {
			cell.best = v
		}
	case opSum, opTotal, opAvg:
		if e.d == dialect.Postgres && !v.IsNumeric() {
			cell.err = xerr.New(xerr.CodeType, "%s(%s)", ac.fc.Name, v.Kind())
			return
		}
		if cell.seen == 0 && !cell.seeded {
			cell.allInt = ac.op == opSum
		}
		cell.seen++
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
			cell.isum += num.Int64()
			cell.fsum += float64(num.Int64())
		} else {
			cell.allInt = false
			cell.fsum += num.AsFloat()
		}
	}
}

// finalizeAgg produces one aggregate output value from its accumulator,
// replicating aggregate()'s control flow — including the agg-empty-group
// fault, the arity error, and lazy argument binding for zero-row groups
// (whose compile errors the materialized path still raises).
func (e *Engine) finalizeAgg(ac *aggCol, cell *aggCell, groupRows int64, x *exprEval) (sqlval.Value, error) {
	// Fault site (sqlite.agg-empty-group) — mirrored from aggregate() so
	// the fault matrix is path-independent.
	if e.d == dialect.SQLite && e.fs.Has(faults.AggEmptyGroup) && groupRows == 0 {
		switch ac.name {
		case "COUNT":
			return sqlval.Int(1), nil
		case "SUM", "MIN", "MAX":
			return sqlval.Int(0), nil
		}
	}
	if ac.countStar {
		return sqlval.Int(groupRows), nil
	}
	if ac.arityErr != nil {
		return sqlval.Null(), ac.arityErr
	}
	if !ac.direct {
		ac.bind(x)
		if ac.bindErr != nil {
			return sqlval.Null(), ac.bindErr
		}
	}
	if cell.err != nil {
		return sqlval.Null(), cell.err
	}
	switch ac.name {
	case "COUNT":
		return sqlval.Int(cell.seen), nil
	case "MIN", "MAX":
		if !cell.hasBest {
			return sqlval.Null(), nil
		}
		return cell.best, nil
	case "SUM", "TOTAL", "AVG":
		if cell.seen == 0 {
			if ac.name == "TOTAL" {
				return sqlval.Real(0), nil
			}
			return sqlval.Null(), nil
		}
		switch ac.name {
		case "AVG":
			return sqlval.Real(cell.fsum / float64(cell.seen)), nil
		case "TOTAL":
			return sqlval.Real(cell.fsum), nil
		default:
			if cell.allInt {
				return sqlval.Int(cell.isum), nil
			}
			return sqlval.Real(cell.fsum), nil
		}
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "aggregate %s", ac.fc.Name)
}

// orderByTopK is the bounded-heap ORDER BY + LIMIT path: it keeps the
// k = limit+offset best rows in a max-heap (root = worst kept) and returns
// them in full stable-sort order, so the applyLimit slice that follows is
// byte-identical to sorting everything. handled=false defers to the full
// sort — non-constant or ill-typed LIMIT/OFFSET (whose errors applyLimit
// raises with identical precedence), or k too large to profit.
func (e *Engine) orderByTopK(n *sqlast.Select, rels []*relation, rows [][]sqlval.Value) (bool, [][]sqlval.Value, error) {
	keyIdx, err := e.resolveOrderKeys(n, rels)
	if err != nil {
		return false, nil, err
	}
	lv, err := e.constEval(n.Limit)
	if err != nil || lv.Kind() != sqlval.KInt || lv.Int64() < 0 {
		return false, rows, nil
	}
	k64 := lv.Int64()
	if n.Offset != nil {
		ov, err := e.constEval(n.Offset)
		if err != nil || ov.Kind() != sqlval.KInt || ov.Int64() < 0 {
			return false, rows, nil
		}
		k64 += ov.Int64()
	}
	if k64 <= 0 || k64 >= int64(len(rows)) {
		return false, rows, nil
	}
	k := int(k64)
	e.cov.hit("dql.order-by")
	e.cov.hit("dql.order-topk")

	// keyCmp orders two rows by the sort keys alone (0 on a full tie).
	keyCmp := func(a, b int32) int {
		for i, ki := range keyIdx {
			c := sqlval.Compare(rows[a][ki], rows[b][ki], sqlval.CollBinary)
			if n.OrderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	// worse is the heap order: a sorts after b (keys, then the input-index
	// tiebreak that preserves sort.SliceStable's stability).
	worse := func(a, b int32) bool {
		if c := keyCmp(a, b); c != 0 {
			return c > 0
		}
		return a > b
	}

	tieFault := e.d == dialect.MySQL && e.fs.Has(faults.TopKHeapBoundary)
	heap := e.mem.slots.carve(k)
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && worse(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && worse(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := 0; i < len(rows); i++ {
		cand := int32(i)
		if len(heap) < k {
			heap = append(heap, cand)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(heap[c], heap[p]) {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
			continue
		}
		if worse(heap[0], cand) {
			heap[0] = cand
			siftDown()
			continue
		}
		// Fault site (generic.topk-heap-boundary): when a rejected candidate
		// ties with the heap root on every sort key (losing only the
		// stability tiebreak), the root is evicted along with it — the k-th
		// row of the result vanishes.
		if tieFault && keyCmp(cand, heap[0]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				siftDown()
			}
		}
	}
	sort.Slice(heap, func(a, b int) bool { return worse(heap[b], heap[a]) })
	kept := e.mem.resRows.alloc(len(heap))
	for i, ri := range heap {
		kept[i] = rows[ri]
	}
	return true, kept, nil
}

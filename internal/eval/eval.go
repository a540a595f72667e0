// Package eval is the engine-side expression evaluator. It mirrors the SQL
// semantics the oracle interpreter (internal/interp) implements, but it is
// the production half: it resolves columns through the executor's relation
// layout and row frame, consults column metadata from the catalog, and
// hosts many of the injected bug sites (the paper's evaluator/optimizer bug
// classes).
//
// It shares no evaluation code with internal/interp — that separation is
// what keeps injected bugs observable to the oracle.
package eval

import (
	"math"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// Meta is the column metadata the evaluator consults.
type Meta struct {
	Coll        sqlval.Collation
	Affinity    sqlval.Affinity
	Unsigned    bool
	TypeName    string
	TableEngine string // MySQL storage engine of the owning table
}

// Evaluator evaluates expressions under a dialect, session options, and an
// enabled-fault set.
type Evaluator struct {
	D                 dialect.Dialect
	Faults            *faults.Set
	CaseSensitiveLike bool
}

// New returns an evaluator for the dialect with no faults enabled.
func New(d dialect.Dialect) *Evaluator { return &Evaluator{D: d} }

func typeError(format string, args ...any) error {
	return xerr.New(xerr.CodeType, format, args...)
}

// Eval computes the value of e for the frame's current rows. It is the
// tree-walk reference compiled programs are checked against: every column
// reference resolves through lay each time it is evaluated, so a reference
// the walk never reaches never fails to bind. A nil layout has no columns
// (constant expressions).
func (ev *Evaluator) Eval(e sqlast.Expr, lay Layout, f *Frame) (sqlval.Value, error) {
	switch n := e.(type) {
	case *sqlast.Literal:
		return n.Val, nil
	case *sqlast.ColumnRef:
		slot, _, demoted, err := ev.bindColumn(n, lay)
		if err != nil {
			return sqlval.Null(), err
		}
		if demoted {
			return sqlval.Text(n.Column), nil
		}
		return f.value(slot), nil
	case *sqlast.Collate:
		return ev.Eval(n.X, lay, f)
	case *sqlast.Unary:
		return ev.evalUnary(n, lay, f)
	case *sqlast.Binary:
		return ev.evalBinary(n, lay, f)
	case *sqlast.Between:
		return ev.evalBetween(n, lay, f)
	case *sqlast.InList:
		return ev.evalIn(n, lay, f)
	case *sqlast.Cast:
		x, err := ev.Eval(n.X, lay, f)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.Cast(x, n.TypeName)
	case *sqlast.Case:
		return ev.evalCase(n, lay, f)
	case *sqlast.FuncCall:
		return ev.evalFunc(n, lay, f)
	default:
		return sqlval.Null(), errUnsupported(e)
	}
}

// errUnsupported is the error for an expression node the evaluator does
// not know.
func errUnsupported(e sqlast.Expr) error {
	return xerr.New(xerr.CodeUnsupported, "unsupported expression %T", e)
}

// EvalBool computes e as a filter condition (see Eval).
func (ev *Evaluator) EvalBool(e sqlast.Expr, lay Layout, f *Frame) (sqlval.TriBool, error) {
	v, err := ev.Eval(e, lay, f)
	if err != nil {
		return sqlval.TriUnknown, err
	}
	return ev.Truthy(v)
}

// Truthy converts a value to the dialect's boolean interpretation.
func (ev *Evaluator) Truthy(v sqlval.Value) (sqlval.TriBool, error) {
	if v.IsNull() {
		return sqlval.TriUnknown, nil
	}
	if ev.D == dialect.Postgres {
		if v.Kind() != sqlval.KBool {
			return sqlval.TriUnknown, typeError("argument of boolean context must be type boolean, not %s", v.Kind())
		}
		return sqlval.TriOf(v.BoolVal()), nil
	}
	// Fault site (mysql.text-double-bool, Listing class §4.5): small
	// doubles stored in TEXT evaluate through an integer truncation.
	if ev.D == dialect.MySQL && ev.Faults.Has(faults.TextDoubleBool) && v.Kind() == sqlval.KText {
		n := ev.numeric(v)
		return sqlval.TriOf(int64(n.AsFloat()) != 0), nil
	}
	n := ev.numeric(v)
	if n.IsNull() {
		return sqlval.TriUnknown, nil
	}
	return sqlval.TriOf(n.AsFloat() != 0), nil
}

// Numeric exposes the engine's lossy numeric coercion (text → longest
// numeric prefix) for callers that must agree with comparison semantics
// byte-for-byte — the hash-join key builder normalizes MySQL keys through
// it so bucket equality coarsens the evaluator's coercing equality.
func Numeric(v sqlval.Value) sqlval.Value {
	return (&Evaluator{}).numeric(v)
}

// numeric is the engine's lossy numeric coercion (text → longest numeric
// prefix). Independent implementation of the same specification as
// interp.ToNumeric.
func (ev *Evaluator) numeric(v sqlval.Value) sqlval.Value {
	switch v.Kind() {
	case sqlval.KText:
		return prefixNumber(v.Str())
	case sqlval.KBlob:
		return prefixNumber(v.BlobStr())
	case sqlval.KBool:
		return sqlval.Int(v.Int64())
	default:
		return v
	}
}

// prefixNumber scans the longest numeric prefix with a hand-rolled state
// machine (deliberately not sharing code with the oracle's parser).
func prefixNumber(s string) sqlval.Value {
	i, n := 0, len(s)
	for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	start := i
	if i < n && (s[i] == '+' || s[i] == '-') {
		i++
	}
	intDigits := 0
	for i < n && s[i] >= '0' && s[i] <= '9' {
		i++
		intDigits++
	}
	fracDigits := 0
	isReal := false
	if i < n && s[i] == '.' {
		j := i + 1
		for j < n && s[j] >= '0' && s[j] <= '9' {
			j++
			fracDigits++
		}
		if intDigits+fracDigits > 0 {
			isReal = true
			i = j
		}
	}
	if intDigits+fracDigits == 0 {
		return sqlval.Int(0)
	}
	if i < n && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < n && (s[j] == '+' || s[j] == '-') {
			j++
		}
		expDigits := 0
		for j < n && s[j] >= '0' && s[j] <= '9' {
			j++
			expDigits++
		}
		if expDigits > 0 {
			isReal = true
			i = j
		}
	}
	text := s[start:i]
	if v, ok := sqlval.TextToNumeric(text); ok {
		if !isReal && v.Kind() == sqlval.KInt {
			return v
		}
		if v.Kind() == sqlval.KInt {
			return sqlval.Real(float64(v.Int64()))
		}
		return v
	}
	return sqlval.Int(0)
}

func (ev *Evaluator) boolVal(t sqlval.TriBool) sqlval.Value {
	if ev.D == dialect.Postgres {
		return t.BoolValue()
	}
	return t.Value()
}

func (ev *Evaluator) evalUnary(n *sqlast.Unary, lay Layout, f *Frame) (sqlval.Value, error) {
	// Fault site (mysql.double-negation, Listing 13): NOT(NOT x) is
	// folded to x before evaluation — correct for booleans, wrong for
	// general integers.
	if n.Op == sqlast.OpNot && ev.D == dialect.MySQL && ev.Faults.Has(faults.DoubleNegation) {
		if inner, ok := n.X.(*sqlast.Unary); ok && inner.Op == sqlast.OpNot {
			return ev.Eval(inner.X, lay, f)
		}
	}
	// Fault site (sqlite.is-not-null-opt): NOT (x IS NULL) on a bare
	// column is rewritten to constant TRUE by a bogus not-null inference.
	if n.Op == sqlast.OpNot && ev.D == dialect.SQLite && ev.Faults.Has(faults.IsNotNullOpt) {
		if inner, ok := n.X.(*sqlast.Unary); ok && inner.Op == sqlast.OpIsNull {
			if _, isCol := inner.X.(*sqlast.ColumnRef); isCol {
				return sqlval.Int(1), nil
			}
		}
	}
	x, err := ev.Eval(n.X, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}
	return ev.unary(n.Op, x)
}

// unary applies a unary operator to its evaluated operand — the one
// definition both evaluation paths use.
func (ev *Evaluator) unary(op sqlast.UnaryOp, x sqlval.Value) (sqlval.Value, error) {
	switch op {
	case sqlast.OpNot:
		t, err := ev.Truthy(x)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.boolVal(t.Not()), nil
	case sqlast.OpIsNull:
		return ev.boolVal(sqlval.TriOf(x.IsNull())), nil
	case sqlast.OpNotNull:
		return ev.boolVal(sqlval.TriOf(!x.IsNull())), nil
	case sqlast.OpNeg:
		return ev.negate(x)
	case sqlast.OpPos:
		if ev.D == dialect.Postgres && !x.IsNull() && !x.IsNumeric() {
			return sqlval.Null(), typeError("unary + on %s", x.Kind())
		}
		return x, nil
	case sqlast.OpBitNot:
		if x.IsNull() {
			return sqlval.Null(), nil
		}
		if ev.D == dialect.Postgres && x.Kind() != sqlval.KInt {
			return sqlval.Null(), typeError("~ on %s", x.Kind())
		}
		return sqlval.Int(^clampInt64(ev.numeric(x))), nil
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "unary operator")
}

func (ev *Evaluator) negate(x sqlval.Value) (sqlval.Value, error) {
	if x.IsNull() {
		return sqlval.Null(), nil
	}
	if ev.D == dialect.Postgres && !x.IsNumeric() {
		return sqlval.Null(), typeError("unary - on %s", x.Kind())
	}
	n := ev.numeric(x)
	switch n.Kind() {
	case sqlval.KInt:
		if n.Int64() == math.MinInt64 {
			return sqlval.Real(9.223372036854776e18), nil
		}
		return sqlval.Int(-n.Int64()), nil
	case sqlval.KUint:
		if n.Uint64() <= math.MaxInt64 {
			return sqlval.Int(-int64(n.Uint64())), nil
		}
		return sqlval.Real(-float64(n.Uint64())), nil
	default:
		return sqlval.Real(-n.Float64()), nil
	}
}

func clampInt64(v sqlval.Value) int64 {
	switch v.Kind() {
	case sqlval.KInt, sqlval.KBool:
		return v.Int64()
	case sqlval.KUint:
		return int64(v.Uint64())
	case sqlval.KReal:
		f := v.Float64()
		switch {
		case f >= 9.223372036854776e18:
			return math.MaxInt64
		case f < -9.223372036854776e18:
			return math.MinInt64
		default:
			return int64(f)
		}
	}
	return 0
}

func (ev *Evaluator) evalBinary(n *sqlast.Binary, lay Layout, f *Frame) (sqlval.Value, error) {
	if n.Op == sqlast.OpAnd || n.Op == sqlast.OpOr {
		l, err := ev.EvalBool(n.L, lay, f)
		if err != nil {
			return sqlval.Null(), err
		}
		r, err := ev.EvalBool(n.R, lay, f)
		if err != nil {
			return sqlval.Null(), err
		}
		if n.Op == sqlast.OpAnd {
			return ev.boolVal(l.And(r)), nil
		}
		return ev.boolVal(l.Or(r)), nil
	}

	l, err := ev.Eval(n.L, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}
	r, err := ev.Eval(n.R, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}

	var coll sqlval.Collation
	if collates(n.Op) {
		coll = ev.comparisonCollation(n.L, n.R, lay)
	}
	return ev.binary(n, l, r, coll, lay)
}

// collates reports whether a binary operator compares its operands under
// a collation.
func collates(op sqlast.BinOp) bool {
	switch op {
	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe,
		sqlast.OpIs, sqlast.OpIsNot, sqlast.OpNullSafeEq:
		return true
	}
	return false
}

// binary applies a binary operator other than AND/OR to its evaluated
// operands — the one definition both evaluation paths use. coll is the
// comparison collation (read only when collates(n.Op)); the comparison
// fault sites read column metadata through lay.
func (ev *Evaluator) binary(n *sqlast.Binary, l, r sqlval.Value, coll sqlval.Collation, lay Layout) (sqlval.Value, error) {
	switch n.Op {
	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		if v, handled, err := ev.comparisonFaults(n, l, r, lay); handled || err != nil {
			return v, err
		}
		t, err := ev.compareOp(l, r, n.Op, coll)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.boolVal(t), nil
	case sqlast.OpIs, sqlast.OpIsNot:
		eq, err := ev.nullSafeEq(l, r, coll)
		if err != nil {
			return sqlval.Null(), err
		}
		if n.Op == sqlast.OpIsNot {
			eq = !eq
		}
		return ev.boolVal(sqlval.TriOf(eq)), nil
	case sqlast.OpNullSafeEq:
		// Fault site (mysql.null-safe-eq-range, Listing 12): <=> against
		// a constant wider than the column type clamps the constant and
		// loses null-safety — NULL <=> <out-of-range> yields TRUE, so
		// Listing 12's NOT(c0 <=> 2035382037) stops fetching the row.
		if ev.D == dialect.MySQL && ev.Faults.Has(faults.NullSafeEqRange) {
			if outOfTypeRange(n.L, r, lay) {
				return ev.boolVal(sqlval.TriOf(l.IsNull())), nil
			}
			if outOfTypeRange(n.R, l, lay) {
				return ev.boolVal(sqlval.TriOf(r.IsNull())), nil
			}
		}
		eq, err := ev.nullSafeEq(l, r, coll)
		if err != nil {
			return sqlval.Null(), err
		}
		return ev.boolVal(sqlval.TriOf(eq)), nil
	case sqlast.OpLike, sqlast.OpNotLike:
		t, err := ev.like(n.L, l, r)
		if err != nil {
			return sqlval.Null(), err
		}
		if n.Op == sqlast.OpNotLike {
			t = t.Not()
		}
		return ev.boolVal(t), nil
	case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod:
		return ev.arith(l, r, n.Op)
	case sqlast.OpConcat:
		return ev.concat(l, r)
	case sqlast.OpBitAnd, sqlast.OpBitOr, sqlast.OpShl, sqlast.OpShr:
		return ev.bits(l, r, n.Op)
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "binary operator")
}

// comparisonFaults hosts the comparison-related injected bugs. It reports
// handled=true when a fault rewrote the result.
func (ev *Evaluator) comparisonFaults(n *sqlast.Binary, l, r sqlval.Value, lay Layout) (sqlval.Value, bool, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Value{}, false, nil
	}
	switch ev.D {
	case dialect.SQLite:
		// Fault site (sqlite.affinity-compare): the constant side of a
		// comparison against an INTEGER-affinity column is numerified,
		// breaking storage-class comparison.
		if ev.Faults.Has(faults.AffinityCompare) {
			if m, side := columnSideMeta(n, lay); side != 0 && numericAffinity(m.Affinity) {
				var cmp int
				if side == 1 && r.Kind() == sqlval.KText {
					cmp = sqlval.Compare(ev.numeric(l), ev.numeric(r), sqlval.CollBinary)
				} else if side == 2 && l.Kind() == sqlval.KText {
					cmp = sqlval.Compare(ev.numeric(l), ev.numeric(r), sqlval.CollBinary)
				} else {
					return sqlval.Value{}, false, nil
				}
				return ev.boolVal(cmpToTri(cmp, n.Op)), true, nil
			}
		}
	case dialect.MySQL:
		// Fault site (mysql.memory-engine-cast, Listing 11): comparisons
		// involving CAST(... AS UNSIGNED) on MEMORY-engine tables invert.
		if ev.Faults.Has(faults.MemoryEngineCast) && involvesMemoryEngineCast(n, lay) {
			t, err := ev.compareOp(l, r, n.Op, ev.comparisonCollation(n.L, n.R, lay))
			if err != nil {
				return sqlval.Value{}, false, err
			}
			return ev.boolVal(t.Not()), true, nil
		}
		// Fault site (mysql.unsigned-compare): an UNSIGNED column
		// compared with a negative constant coerces the constant.
		if ev.Faults.Has(faults.UnsignedCompare) {
			if m, side := columnSideMeta(n, lay); side != 0 && m.Unsigned {
				other := r
				if side == 2 {
					other = l
				}
				if other.Kind() == sqlval.KInt && other.Int64() < 0 {
					wrapped := sqlval.Uint(uint64(other.Int64()))
					var t sqlval.TriBool
					var err error
					if side == 1 {
						t, err = ev.compareOp(l, wrapped, n.Op, sqlval.CollBinary)
					} else {
						t, err = ev.compareOp(wrapped, r, n.Op, sqlval.CollBinary)
					}
					if err != nil {
						return sqlval.Value{}, false, err
					}
					return ev.boolVal(t), true, nil
				}
			}
		}
		// Fault site (mysql.tinyint-range-clamp): TINYINT comparisons
		// with out-of-range constants yield FALSE.
		if ev.Faults.Has(faults.TinyintRangeClamp) {
			if outOfTypeRange(n.L, r, lay) || outOfTypeRange(n.R, l, lay) {
				return sqlval.Int(0), true, nil
			}
		}
	}
	return sqlval.Value{}, false, nil
}

func numericAffinity(a sqlval.Affinity) bool {
	return a == sqlval.AffInteger || a == sqlval.AffReal || a == sqlval.AffNumeric
}

// columnSideMeta reports which side of a binary comparison is a bare
// column (1=left, 2=right, 0=neither) plus that column's metadata.
func columnSideMeta(n *sqlast.Binary, lay Layout) (Meta, int) {
	if c, ok := n.L.(*sqlast.ColumnRef); ok {
		if m, ok := columnMeta(lay, c.Table, c.Column); ok {
			return m, 1
		}
	}
	if c, ok := n.R.(*sqlast.ColumnRef); ok {
		if m, ok := columnMeta(lay, c.Table, c.Column); ok {
			return m, 2
		}
	}
	return Meta{}, 0
}

// outOfTypeRange reports whether colExpr is a TINYINT column and v is an
// integer constant outside [-128, 127].
func outOfTypeRange(colExpr sqlast.Expr, v sqlval.Value, lay Layout) bool {
	c, ok := colExpr.(*sqlast.ColumnRef)
	if !ok {
		return false
	}
	m, ok := columnMeta(lay, c.Table, c.Column)
	if !ok || !strings.Contains(strings.ToUpper(m.TypeName), "TINYINT") {
		return false
	}
	if v.Kind() == sqlval.KInt {
		return v.Int64() > 127 || v.Int64() < -128
	}
	if v.Kind() == sqlval.KUint {
		return v.Uint64() > 127
	}
	return false
}

// involvesMemoryEngineCast detects the Listing 11 trigger: one comparison
// side contains CAST(col AS UNSIGNED) where col's table uses MEMORY.
func involvesMemoryEngineCast(n *sqlast.Binary, lay Layout) bool {
	found := false
	probe := func(e sqlast.Expr) {
		sqlast.WalkExprs(e, func(x sqlast.Expr) bool {
			if cast, ok := x.(*sqlast.Cast); ok && strings.Contains(strings.ToUpper(cast.TypeName), "UNSIGNED") {
				if col, ok := cast.X.(*sqlast.ColumnRef); ok {
					if m, ok := columnMeta(lay, col.Table, col.Column); ok && m.TableEngine == "MEMORY" {
						found = true
					}
				}
			}
			return true
		})
	}
	probe(n.L)
	probe(n.R)
	return found
}

func cmpToTri(c int, op sqlast.BinOp) sqlval.TriBool {
	switch op {
	case sqlast.OpEq:
		return sqlval.TriOf(c == 0)
	case sqlast.OpNe:
		return sqlval.TriOf(c != 0)
	case sqlast.OpLt:
		return sqlval.TriOf(c < 0)
	case sqlast.OpLe:
		return sqlval.TriOf(c <= 0)
	case sqlast.OpGt:
		return sqlval.TriOf(c > 0)
	default:
		return sqlval.TriOf(c >= 0)
	}
}

// comparisonCollation resolves the collation for a comparison: explicit
// COLLATE first, then the left column's declared collation, then the
// right's, then the dialect default.
func (ev *Evaluator) comparisonCollation(l, r sqlast.Expr, lay Layout) sqlval.Collation {
	if coll, ok := explicitCollation(l, r); ok {
		return coll
	}
	for _, e := range []sqlast.Expr{l, r} {
		if c, ok := e.(*sqlast.ColumnRef); ok {
			if m, ok := columnMeta(lay, c.Table, c.Column); ok {
				return m.Coll
			}
		}
	}
	return ev.defaultCollation()
}

// explicitCollation is a COLLATE on either side of a comparison, left
// first.
func explicitCollation(l, r sqlast.Expr) (sqlval.Collation, bool) {
	if c, ok := l.(*sqlast.Collate); ok {
		return c.Coll, true
	}
	if c, ok := r.(*sqlast.Collate); ok {
		return c.Coll, true
	}
	return 0, false
}

// defaultCollation is the collation of a comparison with neither an
// explicit COLLATE nor a bare column.
func (ev *Evaluator) defaultCollation() sqlval.Collation {
	if ev.D == dialect.MySQL {
		return sqlval.CollNoCase
	}
	return sqlval.CollBinary
}

// compareOp orders two values and applies the comparison operator under
// three-valued logic.
func (ev *Evaluator) compareOp(l, r sqlval.Value, op sqlast.BinOp, coll sqlval.Collation) (sqlval.TriBool, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.TriUnknown, nil
	}
	c, err := ev.order(l, r, coll)
	if err != nil {
		return sqlval.TriUnknown, err
	}
	return cmpToTri(c, op), nil
}

// order compares non-NULL values per dialect (see compareValues in
// internal/interp for the specification).
func (ev *Evaluator) order(l, r sqlval.Value, coll sqlval.Collation) (int, error) {
	switch ev.D {
	case dialect.MySQL:
		if l.IsNumeric() || r.IsNumeric() || l.Kind() == sqlval.KBool || r.Kind() == sqlval.KBool {
			return sqlval.Compare(ev.numeric(l), ev.numeric(r), sqlval.CollBinary), nil
		}
		if l.Kind() == sqlval.KText && r.Kind() == sqlval.KText {
			return sqlval.CollCompare(l.Str(), r.Str(), coll), nil
		}
		lb, rb := l, r
		if lb.Kind() == sqlval.KText {
			lb = sqlval.Blob([]byte(lb.Str()))
		}
		if rb.Kind() == sqlval.KText {
			rb = sqlval.Blob([]byte(rb.Str()))
		}
		return sqlval.Compare(lb, rb, sqlval.CollBinary), nil
	case dialect.Postgres:
		switch {
		case l.IsNumeric() && r.IsNumeric():
			return sqlval.Compare(l, r, sqlval.CollBinary), nil
		case l.Kind() == sqlval.KText && r.Kind() == sqlval.KText:
			return sqlval.CollCompare(l.Str(), r.Str(), coll), nil
		case l.Kind() == sqlval.KBool && r.Kind() == sqlval.KBool:
			return sqlval.Compare(l, r, sqlval.CollBinary), nil
		case l.Kind() == sqlval.KBlob && r.Kind() == sqlval.KBlob:
			return sqlval.Compare(l, r, sqlval.CollBinary), nil
		default:
			return 0, typeError("operator does not exist: %s = %s", l.Kind(), r.Kind())
		}
	default:
		return sqlval.Compare(l, r, coll), nil
	}
}

func (ev *Evaluator) nullSafeEq(l, r sqlval.Value, coll sqlval.Collation) (bool, error) {
	if l.IsNull() || r.IsNull() {
		return l.IsNull() && r.IsNull(), nil
	}
	if ev.D == dialect.Postgres {
		lt, err := ev.Truthy(l)
		if err != nil {
			return false, err
		}
		rt, err := ev.Truthy(r)
		if err != nil {
			return false, err
		}
		return lt == rt, nil
	}
	c, err := ev.order(l, r, coll)
	if err != nil {
		return false, err
	}
	return c == 0, nil
}

func (ev *Evaluator) like(lExpr sqlast.Expr, l, r sqlval.Value) (sqlval.TriBool, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.TriUnknown, nil
	}
	if ev.D == dialect.Postgres && (l.Kind() != sqlval.KText || r.Kind() != sqlval.KText) {
		return sqlval.TriUnknown, typeError("LIKE on %s/%s", l.Kind(), r.Kind())
	}
	s, pat := textOf(l), textOf(r)
	// Fault site (sqlite.like-affinity-opt, Listing 7): the LIKE-to-
	// equality optimization misfires for non-TEXT-affinity columns when
	// the pattern has no wildcards.
	if ev.D == dialect.SQLite && ev.Faults.Has(faults.LikeAffinityOpt) {
		if col, ok := lExpr.(*sqlast.ColumnRef); ok && !strings.ContainsAny(pat, "%_") {
			_ = col
			if _, fullyNumeric := sqlval.TextToNumeric(pat); !fullyNumeric {
				// "Optimized" equality under numeric affinity: both
				// sides collapse to 0 only if numeric; a non-numeric
				// pattern never matches.
				return sqlval.TriFalse, nil
			}
		}
	}
	ci := ev.D.LikeCaseInsensitive()
	if ev.D == dialect.SQLite && ev.CaseSensitiveLike {
		ci = false
	}
	return sqlval.TriOf(matchLike(s, pat, ci)), nil
}

func textOf(v sqlval.Value) string {
	switch v.Kind() {
	case sqlval.KText:
		return v.Str()
	case sqlval.KBlob:
		return v.BlobStr()
	default:
		return v.Display()
	}
}

// matchLike is the engine's LIKE matcher: iterative with backtracking (a
// different construction from the oracle's recursive matcher).
func matchLike(s, pat string, ci bool) bool {
	if ci {
		s = strings.ToLower(s)
		pat = strings.ToLower(pat)
	}
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		// '%' is always a wildcard — test it before the literal case so a
		// literal '%' in the subject cannot consume it.
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			starSi = si
			pi++
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

func (ev *Evaluator) arith(l, r sqlval.Value, op sqlast.BinOp) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null(), nil
	}
	if ev.D == dialect.Postgres && (!l.IsNumeric() || !r.IsNumeric()) {
		return sqlval.Null(), typeError("arithmetic on %s/%s", l.Kind(), r.Kind())
	}
	ln, rn := ev.numeric(l), ev.numeric(r)

	// Fault site (sqlite.text-int-subtract, Listing 2): TEXT minus a
	// wide integer is computed in floating point, losing precision.
	if op == sqlast.OpSub && ev.D == dialect.SQLite && ev.Faults.Has(faults.TextIntSubtract) {
		if l.Kind() == sqlval.KText && rn.Kind() == sqlval.KInt && wide53(rn.Int64()) {
			f := ln.AsFloat() - rn.AsFloat()
			if f == math.Trunc(f) && math.Abs(f) < 9.2e18 {
				return sqlval.Int(int64(f)), nil
			}
			return sqlval.Real(f), nil
		}
	}

	bothInt := ln.Kind() == sqlval.KInt && rn.Kind() == sqlval.KInt
	switch op {
	case sqlast.OpDiv:
		if ev.D == dialect.MySQL {
			if rn.AsFloat() == 0 {
				return sqlval.Null(), nil
			}
			return sqlval.Real(ln.AsFloat() / rn.AsFloat()), nil
		}
		if bothInt {
			if rn.Int64() == 0 {
				return ev.divZero()
			}
			return sqlval.Int(ln.Int64() / rn.Int64()), nil
		}
		if rn.AsFloat() == 0 {
			return ev.divZero()
		}
		return sqlval.Real(ln.AsFloat() / rn.AsFloat()), nil
	case sqlast.OpMod:
		li, ri := clampInt64(ln), clampInt64(rn)
		if ri == 0 {
			return ev.divZero()
		}
		if li == math.MinInt64 && ri == -1 {
			return sqlval.Int(0), nil
		}
		return sqlval.Int(li % ri), nil
	}

	if bothInt {
		a, b := ln.Int64(), rn.Int64()
		if res, ok := checkedInt(a, b, op); ok {
			return sqlval.Int(res), nil
		}
		if ev.D == dialect.Postgres {
			return sqlval.Null(), xerr.New(xerr.CodeRange, "integer out of range")
		}
	}
	var f float64
	switch op {
	case sqlast.OpAdd:
		f = ln.AsFloat() + rn.AsFloat()
	case sqlast.OpSub:
		f = ln.AsFloat() - rn.AsFloat()
	case sqlast.OpMul:
		f = ln.AsFloat() * rn.AsFloat()
	}
	if math.IsNaN(f) {
		return sqlval.Null(), nil
	}
	return sqlval.Real(f), nil
}

func wide53(i int64) bool {
	const limit = int64(1) << 53
	return i > limit || i < -limit
}

func (ev *Evaluator) divZero() (sqlval.Value, error) {
	if ev.D == dialect.Postgres {
		return sqlval.Null(), xerr.New(xerr.CodeRange, "division by zero")
	}
	return sqlval.Null(), nil
}

func checkedInt(a, b int64, op sqlast.BinOp) (int64, bool) {
	switch op {
	case sqlast.OpAdd:
		res := a + b
		if (b > 0 && res < a) || (b < 0 && res > a) {
			return 0, false
		}
		return res, true
	case sqlast.OpSub:
		res := a - b
		if (b < 0 && res < a) || (b > 0 && res > a) {
			return 0, false
		}
		return res, true
	case sqlast.OpMul:
		if a == 0 || b == 0 {
			return 0, true
		}
		res := a * b
		if res/a != b || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
			return 0, false
		}
		return res, true
	}
	return 0, false
}

func (ev *Evaluator) concat(l, r sqlval.Value) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null(), nil
	}
	if ev.D == dialect.Postgres {
		bad := func(v sqlval.Value) bool {
			return v.Kind() == sqlval.KBool || v.Kind() == sqlval.KBlob
		}
		if bad(l) || bad(r) {
			return sqlval.Null(), typeError("|| on %s/%s", l.Kind(), r.Kind())
		}
	}
	return sqlval.Text(textOf(l) + textOf(r)), nil
}

func (ev *Evaluator) bits(l, r sqlval.Value, op sqlast.BinOp) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null(), nil
	}
	if ev.D == dialect.Postgres && (l.Kind() != sqlval.KInt || r.Kind() != sqlval.KInt) {
		return sqlval.Null(), typeError("bitwise op on %s/%s", l.Kind(), r.Kind())
	}
	a, b := clampInt64(ev.numeric(l)), clampInt64(ev.numeric(r))
	switch op {
	case sqlast.OpBitAnd:
		return sqlval.Int(a & b), nil
	case sqlast.OpBitOr:
		return sqlval.Int(a | b), nil
	case sqlast.OpShl:
		return sqlval.Int(shift(a, b)), nil
	case sqlast.OpShr:
		return sqlval.Int(shift(a, -b)), nil
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "bit operator")
}

func shift(a, by int64) int64 {
	switch {
	case by <= -64:
		if a < 0 {
			return -1
		}
		return 0
	case by < 0:
		return a >> uint(-by)
	case by >= 64:
		return 0
	default:
		return a << uint(by)
	}
}

func (ev *Evaluator) evalBetween(n *sqlast.Between, lay Layout, f *Frame) (sqlval.Value, error) {
	x, err := ev.Eval(n.X, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}
	lo, err := ev.Eval(n.Lo, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}
	hi, err := ev.Eval(n.Hi, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}
	return ev.between(x, lo, hi, ev.comparisonCollation(n.X, n.Lo, lay), n.Not)
}

// between applies [NOT] BETWEEN to evaluated operands — the one
// definition both evaluation paths use.
func (ev *Evaluator) between(x, lo, hi sqlval.Value, coll sqlval.Collation, not bool) (sqlval.Value, error) {
	ge, err := ev.compareOp(x, lo, sqlast.OpGe, coll)
	if err != nil {
		return sqlval.Null(), err
	}
	le, err := ev.compareOp(x, hi, sqlast.OpLe, coll)
	if err != nil {
		return sqlval.Null(), err
	}
	res := ge.And(le)
	if not {
		res = res.Not()
	}
	return ev.boolVal(res), nil
}

func (ev *Evaluator) evalIn(n *sqlast.InList, lay Layout, f *Frame) (sqlval.Value, error) {
	x, err := ev.Eval(n.X, lay, f)
	if err != nil {
		return sqlval.Null(), err
	}
	res := sqlval.TriFalse
	coll := ev.comparisonCollation(n.X, nil, lay)
	for _, item := range n.List {
		v, err := ev.Eval(item, lay, f)
		if err != nil {
			return sqlval.Null(), err
		}
		eq, err := ev.compareOp(x, v, sqlast.OpEq, coll)
		if err != nil {
			return sqlval.Null(), err
		}
		res = res.Or(eq)
	}
	if n.Not {
		res = res.Not()
	}
	return ev.boolVal(res), nil
}

func (ev *Evaluator) evalCase(n *sqlast.Case, lay Layout, f *Frame) (sqlval.Value, error) {
	for _, w := range n.Whens {
		var hit sqlval.TriBool
		if n.Operand != nil {
			op, err := ev.Eval(n.Operand, lay, f)
			if err != nil {
				return sqlval.Null(), err
			}
			wv, err := ev.Eval(w.When, lay, f)
			if err != nil {
				return sqlval.Null(), err
			}
			hit, err = ev.compareOp(op, wv, sqlast.OpEq, ev.comparisonCollation(n.Operand, w.When, lay))
			if err != nil {
				return sqlval.Null(), err
			}
		} else {
			var err error
			hit, err = ev.EvalBool(w.When, lay, f)
			if err != nil {
				return sqlval.Null(), err
			}
		}
		if hit == sqlval.TriTrue {
			return ev.Eval(w.Then, lay, f)
		}
	}
	if n.Else != nil {
		return ev.Eval(n.Else, lay, f)
	}
	return sqlval.Null(), nil
}

// Cast implements CAST for the dialect (engine side).
func (ev *Evaluator) Cast(x sqlval.Value, typeName string) (sqlval.Value, error) {
	if x.IsNull() {
		return sqlval.Null(), nil
	}
	t := strings.ToUpper(typeName)
	switch {
	case strings.Contains(t, "UNSIGNED"):
		n := ev.numeric(x)
		switch n.Kind() {
		case sqlval.KInt:
			return sqlval.Uint(uint64(n.Int64())), nil
		case sqlval.KUint:
			return n, nil
		default:
			return sqlval.Uint(uint64(int64(n.Float64()))), nil
		}
	case t == "SIGNED" || strings.Contains(t, "INT"):
		if ev.D == dialect.Postgres {
			if x.Kind() == sqlval.KText {
				v, ok := sqlval.TextToNumeric(strings.TrimSpace(x.Str()))
				if !ok {
					return sqlval.Null(), typeError("invalid input syntax for type integer: %q", x.Str())
				}
				return sqlval.Int(clampInt64(v)), nil
			}
			if x.Kind() == sqlval.KBool {
				return sqlval.Int(x.Int64()), nil
			}
		}
		return sqlval.Int(clampInt64(ev.numeric(x))), nil
	case strings.Contains(t, "CHAR") || strings.Contains(t, "TEXT") || strings.Contains(t, "CLOB"):
		return sqlval.Text(textOf(x)), nil
	case strings.Contains(t, "REAL") || strings.Contains(t, "FLOA") || strings.Contains(t, "DOUB"):
		n := ev.numeric(x)
		if n.IsNull() {
			return sqlval.Real(0), nil
		}
		return sqlval.Real(n.AsFloat()), nil
	case strings.Contains(t, "BLOB"):
		return sqlval.Blob([]byte(textOf(x))), nil
	case strings.Contains(t, "BOOL"):
		n := ev.numeric(x)
		var tb sqlval.TriBool
		if n.IsNull() {
			tb = sqlval.TriUnknown
		} else {
			tb = sqlval.TriOf(n.AsFloat() != 0)
		}
		if ev.D == dialect.Postgres {
			return tb.BoolValue(), nil
		}
		return tb.Value(), nil
	case strings.Contains(t, "NUMERIC") || strings.Contains(t, "DECIMAL"):
		return sqlval.ApplyAffinity(x, sqlval.AffNumeric), nil
	default:
		return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "cast to %s", typeName)
	}
}

func (ev *Evaluator) evalFunc(n *sqlast.FuncCall, lay Layout, f *Frame) (sqlval.Value, error) {
	args := make([]sqlval.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := ev.Eval(a, lay, f)
		if err != nil {
			return sqlval.Null(), err
		}
		args[i] = v
	}
	return ev.Scalar(n.Name, args)
}

// Scalar dispatches the scalar function library (engine side).
func (ev *Evaluator) Scalar(name string, args []sqlval.Value) (sqlval.Value, error) {
	up := strings.ToUpper(name)
	switch up {
	case "ABS":
		if len(args) != 1 {
			return sqlval.Null(), typeError("wrong number of arguments to ABS")
		}
		v := args[0]
		if v.IsNull() {
			return sqlval.Null(), nil
		}
		if ev.D == dialect.Postgres && !v.IsNumeric() {
			return sqlval.Null(), typeError("abs(%s)", v.Kind())
		}
		n := ev.numeric(v)
		switch n.Kind() {
		case sqlval.KInt:
			if n.Int64() == math.MinInt64 {
				return sqlval.Real(9.223372036854776e18), nil
			}
			if n.Int64() < 0 {
				return sqlval.Int(-n.Int64()), nil
			}
			return n, nil
		case sqlval.KUint:
			return n, nil
		default:
			return sqlval.Real(math.Abs(n.AsFloat())), nil
		}
	case "LENGTH":
		if len(args) != 1 {
			return sqlval.Null(), typeError("wrong number of arguments to LENGTH")
		}
		if args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Int(int64(len(textOf(args[0])))), nil
	case "LOWER":
		if len(args) != 1 || args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Text(strings.ToLower(textOf(args[0]))), nil
	case "UPPER":
		if len(args) != 1 || args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Text(strings.ToUpper(textOf(args[0]))), nil
	case "TYPEOF":
		if ev.D != dialect.SQLite || len(args) != 1 {
			return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "no such function: TYPEOF")
		}
		return sqlval.Text(args[0].Kind().String()), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlval.Null(), nil
	case "IFNULL":
		if len(args) != 2 {
			return sqlval.Null(), typeError("wrong number of arguments to IFNULL")
		}
		if !args[0].IsNull() {
			return args[0], nil
		}
		return args[1], nil
	case "NULLIF":
		if len(args) != 2 {
			return sqlval.Null(), typeError("wrong number of arguments to NULLIF")
		}
		eq, err := ev.nullSafeEq(args[0], args[1], sqlval.CollBinary)
		if err != nil {
			return sqlval.Null(), err
		}
		if eq && !args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return args[0], nil
	case "MIN", "MAX":
		if len(args) < 2 {
			return sqlval.Null(), typeError("scalar %s needs at least 2 arguments", up)
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return sqlval.Null(), nil
			}
			c, err := ev.order(a, best, sqlval.CollBinary)
			if err != nil {
				return sqlval.Null(), err
			}
			if (up == "MIN" && c < 0) || (up == "MAX" && c > 0) {
				best = a
			}
		}
		return best, nil
	case "CONCAT":
		if ev.D != dialect.MySQL {
			return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "no such function: CONCAT")
		}
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return sqlval.Null(), nil
			}
			sb.WriteString(textOf(a))
		}
		return sqlval.Text(sb.String()), nil
	default:
		return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "no such function: %s", name)
	}
}

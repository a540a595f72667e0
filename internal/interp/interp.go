// Package interp is the PQS-side AST interpreter (Algorithm 2 of the
// paper). It evaluates a generated expression against the pivot row only,
// operating purely on literal values: no storage, no planner, no indexes.
// This is the test oracle's half of the semantics and is implemented
// independently from the engine's evaluator (internal/eval) so that a bug
// injected into the engine cannot silently infect the oracle.
//
// The interpreter is deliberately naive — the paper notes its performance
// is irrelevant because the DBMS evaluating the query is the bottleneck.
package interp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// ColInfo carries the pivot-row value and column metadata the interpreter
// needs (collation for comparisons, affinity for dialect-specific display).
type ColInfo struct {
	Val      sqlval.Value
	Coll     sqlval.Collation
	Affinity sqlval.Affinity
	Unsigned bool
}

// Context is the pivot-row environment: the bound columns of the pivot
// tables plus dialect switches. It is reusable — Reset empties it without
// giving back its memory, so a tester binds every pivot into one Context.
type Context struct {
	D dialect.Dialect
	// CaseSensitiveLike mirrors SQLite's PRAGMA case_sensitive_like.
	CaseSensitiveLike bool

	// binds holds one entry per bound (table, column), names compared
	// case-insensitively. Pivot tables have a handful of columns, so a
	// linear scan beats hashing a built key.
	binds []binding
}

// binding is one bound pivot column.
type binding struct {
	table, column string
	info          ColInfo
}

// NewContext returns an empty pivot environment for the dialect.
func NewContext(d dialect.Dialect) *Context {
	return &Context{D: d}
}

// Reset empties the context for the dialect, as NewContext would, keeping
// its binding storage for reuse.
func (c *Context) Reset(d dialect.Dialect) {
	clear(c.binds)
	*c = Context{D: d, binds: c.binds[:0]}
}

// Bind registers a pivot column value, replacing an earlier binding of
// the same (table, column).
func (c *Context) Bind(table, column string, info ColInfo) {
	for i := range c.binds {
		b := &c.binds[i]
		if strings.EqualFold(b.table, table) && strings.EqualFold(b.column, column) {
			b.info = info
			return
		}
	}
	c.binds = append(c.binds, binding{table: table, column: column, info: info})
}

// Lookup resolves a column reference. A qualified reference matches its
// (table, column) binding; an unqualified one (table "") resolves only
// when exactly one bound column has that name.
func (c *Context) Lookup(table, column string) (ColInfo, bool) {
	i, ci := c.Index(table, column)
	return ci, i >= 0
}

// Index is Lookup that also reports where the binding sits: the column's
// position in Values, or -1 when the reference does not resolve.
func (c *Context) Index(table, column string) (int, ColInfo) {
	found := -1
	n := 0
	for i := range c.binds {
		b := &c.binds[i]
		if !strings.EqualFold(b.column, column) {
			continue
		}
		if table != "" {
			if strings.EqualFold(b.table, table) {
				return i, b.info
			}
			continue
		}
		found = i
		n++
	}
	if n != 1 {
		return -1, ColInfo{}
	}
	return found, c.binds[found].info
}

// Values appends the bound columns' values to dst in binding order, the
// positions Index reports.
func (c *Context) Values(dst []sqlval.Value) []sqlval.Value {
	for i := range c.binds {
		dst = append(dst, c.binds[i].info.Val)
	}
	return dst
}

// ErrUnsupported reports an expression the interpreter cannot evaluate; the
// generator treats it as a signal to regenerate.
type ErrUnsupported struct{ What string }

// Error implements the error interface.
func (e *ErrUnsupported) Error() string { return "interp: unsupported " + e.What }

// TypeError is a dialect type error (strict Postgres typing).
type TypeError struct{ Msg string }

// Error implements the error interface.
func (e *TypeError) Error() string { return "interp: type error: " + e.Msg }

func typeErrf(format string, args ...any) error {
	return &TypeError{Msg: fmt.Sprintf(format, args...)}
}

// Eval computes the value of e on the pivot row.
func Eval(e sqlast.Expr, ctx *Context) (sqlval.Value, error) {
	switch n := e.(type) {
	case *sqlast.Literal:
		return n.Val, nil
	case *sqlast.ColumnRef:
		ci, ok := ctx.Lookup(n.Table, n.Column)
		if !ok {
			if n.MaybeString && ctx.D == dialect.SQLite {
				// SQLite misfeature: unresolvable "..." is a string.
				return sqlval.Text(n.Column), nil
			}
			return sqlval.Null(), &ErrUnsupported{What: "column " + n.Column}
		}
		return ci.Val, nil
	case *sqlast.Collate:
		return Eval(n.X, ctx)
	case *sqlast.Unary:
		return evalUnary(n, ctx)
	case *sqlast.Binary:
		return evalBinary(n, ctx)
	case *sqlast.Between:
		return evalBetween(n, ctx)
	case *sqlast.InList:
		return evalIn(n, ctx)
	case *sqlast.Cast:
		x, err := Eval(n.X, ctx)
		if err != nil {
			return sqlval.Null(), err
		}
		return EvalCast(x, n.TypeName, ctx.D)
	case *sqlast.Case:
		return evalCase(n, ctx)
	case *sqlast.FuncCall:
		return evalFunc(n, ctx)
	default:
		return sqlval.Null(), &ErrUnsupported{What: fmt.Sprintf("node %T", e)}
	}
}

// EvalBool computes e in boolean context (the rectification step's input).
func EvalBool(e sqlast.Expr, ctx *Context) (sqlval.TriBool, error) {
	v, err := Eval(e, ctx)
	if err != nil {
		return sqlval.TriUnknown, err
	}
	return Truthiness(v, ctx.D)
}

// Truthiness converts a value to the dialect's boolean interpretation.
// SQLite and MySQL coerce numerically; Postgres requires a boolean.
func Truthiness(v sqlval.Value, d dialect.Dialect) (sqlval.TriBool, error) {
	if v.IsNull() {
		return sqlval.TriUnknown, nil
	}
	if d == dialect.Postgres {
		if v.Kind() != sqlval.KBool {
			return sqlval.TriUnknown, typeErrf("argument of boolean context must be type boolean, not %s", v.Kind())
		}
		return sqlval.TriOf(v.BoolVal()), nil
	}
	n := ToNumeric(v, d)
	if n.IsNull() {
		return sqlval.TriUnknown, nil
	}
	return sqlval.TriOf(n.AsFloat() != 0), nil
}

// ToNumeric applies the lossy numeric coercion of SQLite/MySQL: text is
// parsed by longest numeric prefix (empty prefix → 0), blobs go through
// their text bytes, booleans become integers.
func ToNumeric(v sqlval.Value, d dialect.Dialect) sqlval.Value {
	switch v.Kind() {
	case sqlval.KNull:
		return v
	case sqlval.KInt, sqlval.KUint, sqlval.KReal:
		return v
	case sqlval.KBool:
		return sqlval.Int(v.Int64())
	case sqlval.KText:
		return NumericPrefix(v.Str())
	case sqlval.KBlob:
		return NumericPrefix(v.BlobStr())
	default:
		return sqlval.Null()
	}
}

// NumericPrefix parses the longest numeric prefix of s; no prefix yields
// integer 0 (SQLite/MySQL behaviour).
func NumericPrefix(s string) sqlval.Value {
	t := strings.TrimLeft(s, " \t\n\r")
	i := 0
	n := len(t)
	if i < n && (t[i] == '+' || t[i] == '-') {
		i++
	}
	digits := 0
	for i < n && t[i] >= '0' && t[i] <= '9' {
		i++
		digits++
	}
	isFloat := false
	if i < n && t[i] == '.' {
		j := i + 1
		frac := 0
		for j < n && t[j] >= '0' && t[j] <= '9' {
			j++
			frac++
		}
		if digits > 0 || frac > 0 {
			isFloat = true
			i = j
			digits += frac
		}
	}
	if digits == 0 {
		return sqlval.Int(0)
	}
	if i < n && (t[i] == 'e' || t[i] == 'E') {
		j := i + 1
		if j < n && (t[j] == '+' || t[j] == '-') {
			j++
		}
		exp := 0
		for j < n && t[j] >= '0' && t[j] <= '9' {
			j++
			exp++
		}
		if exp > 0 {
			isFloat = true
			i = j
		}
	}
	prefix := t[:i]
	if !isFloat {
		if v, ok := sqlval.TextToNumeric(prefix); ok && v.Kind() == sqlval.KInt {
			return v
		}
		isFloat = true
	}
	if v, ok := sqlval.TextToNumeric(prefix); ok {
		if v.Kind() == sqlval.KInt {
			return sqlval.Real(float64(v.Int64()))
		}
		return v
	}
	return sqlval.Int(0)
}

func evalUnary(n *sqlast.Unary, ctx *Context) (sqlval.Value, error) {
	x, err := Eval(n.X, ctx)
	if err != nil {
		return sqlval.Null(), err
	}
	switch n.Op {
	case sqlast.OpNot:
		// Algorithm 2 of the paper, verbatim.
		t, err := Truthiness(x, ctx.D)
		if err != nil {
			return sqlval.Null(), err
		}
		return boolResult(t.Not(), ctx.D), nil
	case sqlast.OpIsNull:
		return boolResult(sqlval.TriOf(x.IsNull()), ctx.D), nil
	case sqlast.OpNotNull:
		return boolResult(sqlval.TriOf(!x.IsNull()), ctx.D), nil
	case sqlast.OpNeg:
		return Negate(x, ctx.D)
	case sqlast.OpPos:
		if ctx.D == dialect.Postgres && !x.IsNull() && !x.IsNumeric() {
			return sqlval.Null(), typeErrf("unary + on %s", x.Kind())
		}
		return x, nil
	case sqlast.OpBitNot:
		if x.IsNull() {
			return sqlval.Null(), nil
		}
		if ctx.D == dialect.Postgres && x.Kind() != sqlval.KInt {
			return sqlval.Null(), typeErrf("~ on %s", x.Kind())
		}
		n := ToNumeric(x, ctx.D)
		if n.IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Int(^toInt64(n)), nil
	}
	return sqlval.Null(), &ErrUnsupported{What: "unary op"}
}

// Negate implements SQL unary minus for the dialect.
func Negate(x sqlval.Value, d dialect.Dialect) (sqlval.Value, error) {
	if x.IsNull() {
		return sqlval.Null(), nil
	}
	if d == dialect.Postgres && !x.IsNumeric() {
		return sqlval.Null(), typeErrf("unary - on %s", x.Kind())
	}
	n := ToNumeric(x, d)
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
	case sqlval.KReal:
		return sqlval.Real(-n.Float64()), nil
	}
	return sqlval.Null(), nil
}

// boolResult encodes a TriBool in the dialect's boolean representation.
func boolResult(t sqlval.TriBool, d dialect.Dialect) sqlval.Value {
	if d == dialect.Postgres {
		return t.BoolValue()
	}
	return t.Value()
}

func toInt64(v sqlval.Value) int64 {
	switch v.Kind() {
	case sqlval.KInt, sqlval.KBool:
		return v.Int64()
	case sqlval.KUint:
		return int64(v.Uint64())
	case sqlval.KReal:
		f := v.Float64()
		if f >= 9.223372036854776e18 {
			return math.MaxInt64
		}
		if f < -9.223372036854776e18 {
			return math.MinInt64
		}
		return int64(f)
	default:
		return 0
	}
}

func evalBinary(n *sqlast.Binary, ctx *Context) (sqlval.Value, error) {
	switch n.Op {
	case sqlast.OpAnd, sqlast.OpOr:
		l, err := EvalBool(n.L, ctx)
		if err != nil {
			return sqlval.Null(), err
		}
		r, err := EvalBool(n.R, ctx)
		if err != nil {
			return sqlval.Null(), err
		}
		if n.Op == sqlast.OpAnd {
			return boolResult(l.And(r), ctx.D), nil
		}
		return boolResult(l.Or(r), ctx.D), nil
	}

	l, err := Eval(n.L, ctx)
	if err != nil {
		return sqlval.Null(), err
	}
	r, err := Eval(n.R, ctx)
	if err != nil {
		return sqlval.Null(), err
	}

	switch n.Op {
	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		t, err := CompareTri(l, r, n.Op, collationFor(n.L, n.R, ctx), ctx.D)
		if err != nil {
			return sqlval.Null(), err
		}
		return boolResult(t, ctx.D), nil
	case sqlast.OpIs, sqlast.OpIsNot:
		eq, err := nullSafeEqual(l, r, collationFor(n.L, n.R, ctx), ctx.D)
		if err != nil {
			return sqlval.Null(), err
		}
		if n.Op == sqlast.OpIsNot {
			eq = !eq
		}
		return boolResult(sqlval.TriOf(eq), ctx.D), nil
	case sqlast.OpNullSafeEq:
		eq, err := nullSafeEqual(l, r, collationFor(n.L, n.R, ctx), ctx.D)
		if err != nil {
			return sqlval.Null(), err
		}
		return boolResult(sqlval.TriOf(eq), ctx.D), nil
	case sqlast.OpLike, sqlast.OpNotLike:
		t, err := evalLike(l, r, ctx)
		if err != nil {
			return sqlval.Null(), err
		}
		if n.Op == sqlast.OpNotLike {
			t = t.Not()
		}
		return boolResult(t, ctx.D), nil
	case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod:
		return Arith(l, r, n.Op, ctx.D)
	case sqlast.OpConcat:
		return Concat(l, r, ctx.D)
	case sqlast.OpBitAnd, sqlast.OpBitOr, sqlast.OpShl, sqlast.OpShr:
		return bitOp(l, r, n.Op, ctx.D)
	}
	return sqlval.Null(), &ErrUnsupported{What: "binary op"}
}

// collationFor determines the collation governing a comparison: an explicit
// COLLATE wins, then the left column's declared collation, then the right's.
func collationFor(l, r sqlast.Expr, ctx *Context) sqlval.Collation {
	if c, ok := explicitCollation(l); ok {
		return c
	}
	if c, ok := explicitCollation(r); ok {
		return c
	}
	if c, ok := columnCollation(l, ctx); ok {
		return c
	}
	if c, ok := columnCollation(r, ctx); ok {
		return c
	}
	if ctx.D == dialect.MySQL {
		return sqlval.CollNoCase // MySQL's default collation is case-insensitive
	}
	return sqlval.CollBinary
}

func explicitCollation(e sqlast.Expr) (sqlval.Collation, bool) {
	if c, ok := e.(*sqlast.Collate); ok {
		return c.Coll, true
	}
	return sqlval.CollBinary, false
}

func columnCollation(e sqlast.Expr, ctx *Context) (sqlval.Collation, bool) {
	if ref, ok := e.(*sqlast.ColumnRef); ok {
		if ci, ok := ctx.Lookup(ref.Table, ref.Column); ok {
			return ci.Coll, true
		}
	}
	return sqlval.CollBinary, false
}

// CompareTri implements dialect comparison semantics for <, <=, >, >=, =,
// !=, returning UNKNOWN when either side is NULL.
func CompareTri(l, r sqlval.Value, op sqlast.BinOp, coll sqlval.Collation, d dialect.Dialect) (sqlval.TriBool, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.TriUnknown, nil
	}
	c, err := compareValues(l, r, coll, d)
	if err != nil {
		return sqlval.TriUnknown, err
	}
	switch op {
	case sqlast.OpEq:
		return sqlval.TriOf(c == 0), nil
	case sqlast.OpNe:
		return sqlval.TriOf(c != 0), nil
	case sqlast.OpLt:
		return sqlval.TriOf(c < 0), nil
	case sqlast.OpLe:
		return sqlval.TriOf(c <= 0), nil
	case sqlast.OpGt:
		return sqlval.TriOf(c > 0), nil
	case sqlast.OpGe:
		return sqlval.TriOf(c >= 0), nil
	}
	return sqlval.TriUnknown, &ErrUnsupported{What: "comparison op"}
}

// compareValues orders two non-NULL values per dialect.
//
// SQLite-profile: storage-class ordering (numeric < TEXT < BLOB), text
// under the collation. MySQL-profile: text coerces to number when compared
// against a number; text-text compares case-insensitively by default.
// Postgres-profile: mixed categories are type errors.
func compareValues(l, r sqlval.Value, coll sqlval.Collation, d dialect.Dialect) (int, error) {
	switch d {
	case dialect.MySQL:
		if l.IsNumeric() || r.IsNumeric() || l.Kind() == sqlval.KBool || r.Kind() == sqlval.KBool {
			ln, rn := ToNumeric(l, d), ToNumeric(r, d)
			return sqlval.Compare(ln, rn, sqlval.CollBinary), nil
		}
		if l.Kind() == sqlval.KText && r.Kind() == sqlval.KText {
			return sqlval.CollCompare(l.Str(), r.Str(), coll), nil
		}
		// blob vs text: byte compare on the text bytes
		return sqlval.Compare(blobify(l), blobify(r), sqlval.CollBinary), nil
	case dialect.Postgres:
		if l.IsNumeric() && r.IsNumeric() {
			return sqlval.Compare(l, r, sqlval.CollBinary), nil
		}
		if l.Kind() == sqlval.KText && r.Kind() == sqlval.KText {
			return sqlval.CollCompare(l.Str(), r.Str(), coll), nil
		}
		if l.Kind() == sqlval.KBool && r.Kind() == sqlval.KBool {
			return sqlval.Compare(l, r, sqlval.CollBinary), nil
		}
		if l.Kind() == sqlval.KBlob && r.Kind() == sqlval.KBlob {
			return sqlval.Compare(l, r, sqlval.CollBinary), nil
		}
		return 0, typeErrf("operator does not exist: %s = %s", l.Kind(), r.Kind())
	default: // SQLite
		return sqlval.Compare(l, r, coll), nil
	}
}

func blobify(v sqlval.Value) sqlval.Value {
	if v.Kind() == sqlval.KText {
		return sqlval.Blob([]byte(v.Str()))
	}
	return v
}

// nullSafeEqual implements IS / IS NOT / <=>: NULLs compare equal to NULL
// and unequal to everything else; otherwise ordinary equality.
func nullSafeEqual(l, r sqlval.Value, coll sqlval.Collation, d dialect.Dialect) (bool, error) {
	if l.IsNull() || r.IsNull() {
		return l.IsNull() && r.IsNull(), nil
	}
	if d == dialect.Postgres {
		// IS TRUE / IS FALSE / IS NOT TRUE …: boolean identity.
		lt, err := Truthiness(l, d)
		if err != nil {
			return false, err
		}
		rt, err := Truthiness(r, d)
		if err != nil {
			return false, err
		}
		return lt == rt, nil
	}
	c, err := compareValues(l, r, coll, d)
	if err != nil {
		return false, err
	}
	return c == 0, nil
}

// evalLike implements the LIKE operator: % matches any run, _ one char.
func evalLike(l, r sqlval.Value, ctx *Context) (sqlval.TriBool, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.TriUnknown, nil
	}
	if ctx.D == dialect.Postgres && (l.Kind() != sqlval.KText || r.Kind() != sqlval.KText) {
		return sqlval.TriUnknown, typeErrf("LIKE on %s/%s", l.Kind(), r.Kind())
	}
	s, p := displayText(l), displayText(r)
	ci := ctx.D.LikeCaseInsensitive()
	if ctx.D == dialect.SQLite && ctx.CaseSensitiveLike {
		ci = false
	}
	return sqlval.TriOf(LikeMatch(s, p, ci)), nil
}

// displayText renders a value the way SQLite feeds non-text operands to
// LIKE (its text rendering).
func displayText(v sqlval.Value) string {
	switch v.Kind() {
	case sqlval.KText:
		return v.Str()
	case sqlval.KBlob:
		return v.BlobStr()
	default:
		return v.Display()
	}
}

// LikeMatch is the naive LIKE matcher (the paper notes SQLancer's LIKE has
// over 50 lines; ours is comparable including case handling).
func LikeMatch(s, pat string, caseInsensitive bool) bool {
	if caseInsensitive {
		s = strings.ToLower(s)
		pat = strings.ToLower(pat)
	}
	return likeRec(s, pat)
}

func likeRec(s, pat string) bool {
	if pat == "" {
		return s == ""
	}
	switch pat[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], pat[1:]) {
				return true
			}
		}
		return false
	case '_':
		if s == "" {
			return false
		}
		return likeRec(s[1:], pat[1:])
	default:
		if s == "" || s[0] != pat[0] {
			return false
		}
		return likeRec(s[1:], pat[1:])
	}
}

// Arith implements +, -, *, /, % for the dialect.
func Arith(l, r sqlval.Value, op sqlast.BinOp, d dialect.Dialect) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null(), nil
	}
	if d == dialect.Postgres {
		if !l.IsNumeric() || !r.IsNumeric() {
			return sqlval.Null(), typeErrf("arithmetic on %s/%s", l.Kind(), r.Kind())
		}
	}
	ln, rn := ToNumeric(l, d), ToNumeric(r, d)
	bothInt := ln.Kind() == sqlval.KInt && rn.Kind() == sqlval.KInt

	switch op {
	case sqlast.OpDiv:
		if d == dialect.MySQL {
			// MySQL: / is real division; x/0 is NULL.
			rf := rn.AsFloat()
			if rf == 0 {
				return sqlval.Null(), nil
			}
			return sqlval.Real(ln.AsFloat() / rf), nil
		}
		if bothInt {
			if rn.Int64() == 0 {
				if d == dialect.Postgres {
					return sqlval.Null(), typeErrf("division by zero")
				}
				return sqlval.Null(), nil
			}
			return sqlval.Int(ln.Int64() / rn.Int64()), nil
		}
		rf := rn.AsFloat()
		if rf == 0 {
			if d == dialect.Postgres {
				return sqlval.Null(), typeErrf("division by zero")
			}
			return sqlval.Null(), nil
		}
		return sqlval.Real(ln.AsFloat() / rf), nil
	case sqlast.OpMod:
		li, ri := toInt64(ln), toInt64(rn)
		if ri == 0 {
			if d == dialect.Postgres {
				return sqlval.Null(), typeErrf("division by zero")
			}
			return sqlval.Null(), nil
		}
		if li == math.MinInt64 && ri == -1 {
			return sqlval.Int(0), nil
		}
		return sqlval.Int(li % ri), nil
	}

	if bothInt {
		a, b := ln.Int64(), rn.Int64()
		var res int64
		var overflow bool
		switch op {
		case sqlast.OpAdd:
			res = a + b
			overflow = (b > 0 && res < a) || (b < 0 && res > a)
		case sqlast.OpSub:
			res = a - b
			overflow = (b < 0 && res < a) || (b > 0 && res > a)
		case sqlast.OpMul:
			res = a * b
			overflow = a != 0 && (res/a != b || (a == -1 && b == math.MinInt64))
		}
		if !overflow {
			return sqlval.Int(res), nil
		}
		if d == dialect.Postgres {
			return sqlval.Null(), typeErrf("integer out of range")
		}
		// SQLite/MySQL profile: promote to real on overflow.
	}
	af, bf := ln.AsFloat(), rn.AsFloat()
	var f float64
	switch op {
	case sqlast.OpAdd:
		f = af + bf
	case sqlast.OpSub:
		f = af - bf
	case sqlast.OpMul:
		f = af * bf
	}
	if math.IsNaN(f) {
		return sqlval.Null(), nil
	}
	return sqlval.Real(f), nil
}

// Concat implements || for SQLite and Postgres (MySQL renders || as OR and
// never reaches here).
func Concat(l, r sqlval.Value, d dialect.Dialect) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null(), nil
	}
	if d == dialect.Postgres {
		if l.Kind() == sqlval.KBool || r.Kind() == sqlval.KBool ||
			l.Kind() == sqlval.KBlob || r.Kind() == sqlval.KBlob {
			return sqlval.Null(), typeErrf("|| on %s/%s", l.Kind(), r.Kind())
		}
	}
	return sqlval.Text(displayText(l) + displayText(r)), nil
}

func bitOp(l, r sqlval.Value, op sqlast.BinOp, d dialect.Dialect) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null(), nil
	}
	if d == dialect.Postgres && (l.Kind() != sqlval.KInt || r.Kind() != sqlval.KInt) {
		return sqlval.Null(), typeErrf("bitwise op on %s/%s", l.Kind(), r.Kind())
	}
	a, b := toInt64(ToNumeric(l, d)), toInt64(ToNumeric(r, d))
	switch op {
	case sqlast.OpBitAnd:
		return sqlval.Int(a & b), nil
	case sqlast.OpBitOr:
		return sqlval.Int(a | b), nil
	case sqlast.OpShl:
		return sqlval.Int(shiftLeft(a, b)), nil
	case sqlast.OpShr:
		return sqlval.Int(shiftLeft(a, -b)), nil
	}
	return sqlval.Null(), &ErrUnsupported{What: "bit op"}
}

// shiftLeft implements SQLite's shift semantics: negative amounts shift the
// other way, and amounts ≥64 produce 0 or the sign extension.
func shiftLeft(a, by int64) int64 {
	if by < 0 {
		if by <= -64 {
			if a < 0 {
				return -1
			}
			return 0
		}
		return a >> uint(-by)
	}
	if by >= 64 {
		return 0
	}
	return a << uint(by)
}

func evalBetween(n *sqlast.Between, ctx *Context) (sqlval.Value, error) {
	x, err := Eval(n.X, ctx)
	if err != nil {
		return sqlval.Null(), err
	}
	lo, err := Eval(n.Lo, ctx)
	if err != nil {
		return sqlval.Null(), err
	}
	hi, err := Eval(n.Hi, ctx)
	if err != nil {
		return sqlval.Null(), err
	}
	coll := collationFor(n.X, n.Lo, ctx)
	ge, err := CompareTri(x, lo, sqlast.OpGe, coll, ctx.D)
	if err != nil {
		return sqlval.Null(), err
	}
	le, err := CompareTri(x, hi, sqlast.OpLe, coll, ctx.D)
	if err != nil {
		return sqlval.Null(), err
	}
	res := ge.And(le)
	if n.Not {
		res = res.Not()
	}
	return boolResult(res, ctx.D), nil
}

func evalIn(n *sqlast.InList, ctx *Context) (sqlval.Value, error) {
	x, err := Eval(n.X, ctx)
	if err != nil {
		return sqlval.Null(), err
	}
	res := sqlval.TriFalse
	coll := collationFor(n.X, nil, ctx)
	for _, item := range n.List {
		v, err := Eval(item, ctx)
		if err != nil {
			return sqlval.Null(), err
		}
		eq, err := CompareTri(x, v, sqlast.OpEq, coll, ctx.D)
		if err != nil {
			return sqlval.Null(), err
		}
		res = res.Or(eq)
	}
	if n.Not {
		res = res.Not()
	}
	return boolResult(res, ctx.D), nil
}

func evalCase(n *sqlast.Case, ctx *Context) (sqlval.Value, error) {
	for _, w := range n.Whens {
		var hit sqlval.TriBool
		if n.Operand != nil {
			op, err := Eval(n.Operand, ctx)
			if err != nil {
				return sqlval.Null(), err
			}
			wv, err := Eval(w.When, ctx)
			if err != nil {
				return sqlval.Null(), err
			}
			hit, err = CompareTri(op, wv, sqlast.OpEq, collationFor(n.Operand, w.When, ctx), ctx.D)
			if err != nil {
				return sqlval.Null(), err
			}
		} else {
			var err error
			hit, err = EvalBool(w.When, ctx)
			if err != nil {
				return sqlval.Null(), err
			}
		}
		if hit == sqlval.TriTrue {
			return Eval(w.Then, ctx)
		}
	}
	if n.Else != nil {
		return Eval(n.Else, ctx)
	}
	return sqlval.Null(), nil
}

// EvalCast implements CAST for the dialect.
func EvalCast(x sqlval.Value, typeName string, d dialect.Dialect) (sqlval.Value, error) {
	if x.IsNull() {
		return sqlval.Null(), nil
	}
	t := strings.ToUpper(typeName)
	switch {
	case t == "UNSIGNED" || strings.Contains(t, "UNSIGNED"):
		n := ToNumeric(x, d)
		switch n.Kind() {
		case sqlval.KInt:
			if n.Int64() < 0 {
				return sqlval.Uint(uint64(n.Int64())), nil // two's-complement wrap, MySQL style
			}
			return sqlval.Uint(uint64(n.Int64())), nil
		case sqlval.KUint:
			return n, nil
		case sqlval.KReal:
			f := n.Float64()
			if f < 0 {
				return sqlval.Uint(uint64(int64(f))), nil
			}
			return sqlval.Uint(uint64(f)), nil
		}
		return sqlval.Uint(0), nil
	case t == "SIGNED" || strings.Contains(t, "INT"):
		if d == dialect.Postgres {
			if x.Kind() == sqlval.KText {
				v, ok := sqlval.TextToNumeric(strings.TrimSpace(x.Str()))
				if !ok {
					return sqlval.Null(), typeErrf("invalid input syntax for type integer: %q", x.Str())
				}
				return sqlval.Int(toInt64(v)), nil
			}
			if x.Kind() == sqlval.KBool {
				return sqlval.Int(x.Int64()), nil
			}
		}
		return sqlval.Int(toInt64(ToNumeric(x, d))), nil
	case strings.Contains(t, "CHAR") || strings.Contains(t, "TEXT") || strings.Contains(t, "CLOB"):
		return sqlval.Text(displayText(x)), nil
	case strings.Contains(t, "REAL") || strings.Contains(t, "FLOA") || strings.Contains(t, "DOUB"):
		n := ToNumeric(x, d)
		if n.IsNull() {
			return sqlval.Real(0), nil
		}
		return sqlval.Real(n.AsFloat()), nil
	case strings.Contains(t, "BLOB"):
		return sqlval.Blob([]byte(displayText(x))), nil
	case strings.Contains(t, "BOOL"):
		tb, err := Truthiness(x, dialect.SQLite) // numeric truthiness for the cast itself
		if err != nil {
			return sqlval.Null(), err
		}
		if d == dialect.Postgres {
			return tb.BoolValue(), nil
		}
		return tb.Value(), nil
	case strings.Contains(t, "NUMERIC") || strings.Contains(t, "DECIMAL"):
		return sqlval.ApplyAffinity(x, sqlval.AffNumeric), nil
	default:
		return sqlval.Null(), &ErrUnsupported{What: "cast to " + typeName}
	}
}

func evalFunc(n *sqlast.FuncCall, ctx *Context) (sqlval.Value, error) {
	args := make([]sqlval.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := Eval(a, ctx)
		if err != nil {
			return sqlval.Null(), err
		}
		args[i] = v
	}
	return EvalScalarFunc(n.Name, args, ctx.D)
}

// EvalScalarFunc implements the shared scalar function library.
func EvalScalarFunc(name string, args []sqlval.Value, d dialect.Dialect) (sqlval.Value, error) {
	switch strings.ToUpper(name) {
	case "ABS":
		if len(args) != 1 {
			return sqlval.Null(), &ErrUnsupported{What: "ABS arity"}
		}
		v := args[0]
		if v.IsNull() {
			return sqlval.Null(), nil
		}
		if d == dialect.Postgres && !v.IsNumeric() {
			return sqlval.Null(), typeErrf("abs(%s)", v.Kind())
		}
		n := ToNumeric(v, d)
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
			return sqlval.Null(), &ErrUnsupported{What: "LENGTH arity"}
		}
		v := args[0]
		if v.IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Int(int64(len(displayText(v)))), nil
	case "LOWER":
		if len(args) != 1 || args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Text(strings.ToLower(displayText(args[0]))), nil
	case "UPPER":
		if len(args) != 1 || args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Text(strings.ToUpper(displayText(args[0]))), nil
	case "TYPEOF":
		if d != dialect.SQLite || len(args) != 1 {
			return sqlval.Null(), &ErrUnsupported{What: "TYPEOF"}
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
			return sqlval.Null(), &ErrUnsupported{What: "IFNULL arity"}
		}
		if !args[0].IsNull() {
			return args[0], nil
		}
		return args[1], nil
	case "NULLIF":
		if len(args) != 2 {
			return sqlval.Null(), &ErrUnsupported{What: "NULLIF arity"}
		}
		eq, err := nullSafeEqual(args[0], args[1], sqlval.CollBinary, d)
		if err != nil {
			return sqlval.Null(), err
		}
		if eq && !args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return args[0], nil
	case "MIN", "MAX":
		// Scalar multi-argument MIN/MAX (SQLite); NULL if any arg NULL.
		if len(args) < 2 {
			return sqlval.Null(), &ErrUnsupported{What: "aggregate MIN/MAX in scalar position"}
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return sqlval.Null(), nil
			}
			c, err := compareValues(a, best, sqlval.CollBinary, d)
			if err != nil {
				return sqlval.Null(), err
			}
			if (strings.EqualFold(name, "MIN") && c < 0) || (strings.EqualFold(name, "MAX") && c > 0) {
				best = a
			}
		}
		return best, nil
	case "CONCAT":
		if d != dialect.MySQL {
			return sqlval.Null(), &ErrUnsupported{What: "CONCAT outside mysql"}
		}
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return sqlval.Null(), nil
			}
			sb.WriteString(displayText(a))
		}
		return sqlval.Text(sb.String()), nil
	default:
		return sqlval.Null(), &ErrUnsupported{What: "function " + name}
	}
}

package eval

import (
	"math/rand"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// testCol is one column of a testRow.
type testCol struct {
	table, column string
	val           sqlval.Value
	meta          Meta
}

// testRow is a test Layout over fixed columns, all in one relation: column
// i binds to slot {0, i} and frame() holds their values.
type testRow []testCol

func (r testRow) NumRels() int { return 1 }

func (r testRow) Resolve(table, column string) (Slot, Meta, Resolution) {
	found, n := -1, 0
	for i, c := range r {
		if c.column != column || (table != "" && c.table != table) {
			continue
		}
		found = i
		n++
	}
	switch {
	case n == 1:
		return Slot{Col: found}, r[found].meta, Found
	case n > 1:
		return Slot{}, Meta{}, Ambiguous
	}
	return Slot{}, Meta{}, Missing
}

func (r testRow) frame() *Frame {
	vals := make([]sqlval.Value, len(r))
	for i, c := range r {
		vals[i] = c.val
	}
	return &Frame{Rows: [][]sqlval.Value{vals}}
}

func evalConst(t *testing.T, src string, d dialect.Dialect) (sqlval.Value, error) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src, d)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return New(d).Eval(e, nil, nil)
}

func TestEngineBasics(t *testing.T) {
	cases := []struct {
		src  string
		d    dialect.Dialect
		want sqlval.Value
	}{
		{"NULL IS NOT 1", dialect.SQLite, sqlval.Int(1)},
		{"'' - 2851427734582196970", dialect.SQLite, sqlval.Int(-2851427734582196970)},
		{"NOT (NOT 123)", dialect.MySQL, sqlval.Int(1)},
		{"'0.5' = 0.5", dialect.MySQL, sqlval.Int(1)},
		{"'1' = 1", dialect.SQLite, sqlval.Int(0)},
		{"'abc' LIKE 'A%'", dialect.SQLite, sqlval.Int(1)},
		{"7 / 2", dialect.MySQL, sqlval.Real(3.5)},
		{"7 / 2", dialect.SQLite, sqlval.Int(3)},
		{"NULL <=> NULL", dialect.MySQL, sqlval.Int(1)},
		{"'a' || 'b'", dialect.SQLite, sqlval.Text("ab")},
	}
	for _, c := range cases {
		got, err := evalConst(t, c.src, c.d)
		if err != nil {
			t.Errorf("%s [%s]: %v", c.src, c.d, err)
			continue
		}
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%s [%s] = %v (%v), want %v", c.src, c.d, got, got.Kind(), c.want)
		}
	}
}

func TestPostgresTypeErrors(t *testing.T) {
	for _, src := range []string{"1 AND 0", "'a' = 1", "NOT 3", "1 / 0"} {
		_, err := evalConst(t, src, dialect.Postgres)
		if err == nil {
			t.Errorf("%s should error in postgres", src)
			continue
		}
		if code, ok := xerr.CodeOf(err); !ok || (code != xerr.CodeType && code != xerr.CodeRange) {
			t.Errorf("%s: wrong error %v", src, err)
		}
	}
}

// Fault-injection behaviour tests: each evaluator-level fault must change
// the result of its trigger expression and leave other expressions alone.

func TestFaultDoubleNegation(t *testing.T) {
	e, _ := sqlparse.ParseExpr("123 != (NOT (NOT 123))", dialect.MySQL)
	good := &Evaluator{D: dialect.MySQL}
	bad := &Evaluator{D: dialect.MySQL, Faults: faults.NewSet(faults.DoubleNegation)}
	gv, err1 := good.Eval(e, nil, nil)
	bv, err2 := bad.Eval(e, nil, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !gv.Equal(sqlval.Int(1)) {
		t.Errorf("correct engine: %v, want TRUE (row fetched)", gv)
	}
	if !bv.Equal(sqlval.Int(0)) {
		t.Errorf("faulty engine: %v, want FALSE (Listing 13: row not fetched)", bv)
	}
}

func TestFaultTextIntSubtract(t *testing.T) {
	e, _ := sqlparse.ParseExpr("'' - 2851427734582196970", dialect.SQLite)
	bad := &Evaluator{D: dialect.SQLite, Faults: faults.NewSet(faults.TextIntSubtract)}
	bv, err := bad.Eval(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Equal(sqlval.Int(-2851427734582196970)) {
		t.Errorf("fault should lose precision, got exact %v", bv)
	}
	// Listing 2's observed wrong answer.
	if !bv.Equal(sqlval.Int(-2851427734582196736)) {
		t.Errorf("fault result %v, want Listing 2's -2851427734582196736", bv)
	}
}

func TestFaultTextDoubleBool(t *testing.T) {
	env := testRow{
		{table: "t0", column: "c0", val: sqlval.Text("0.5"), meta: Meta{TypeName: "TEXT"}},
	}
	e, _ := sqlparse.ParseExpr("t0.c0", dialect.MySQL)
	good := &Evaluator{D: dialect.MySQL}
	bad := &Evaluator{D: dialect.MySQL, Faults: faults.NewSet(faults.TextDoubleBool)}
	gt, _ := good.EvalBool(e, env, env.frame())
	bt, _ := bad.EvalBool(e, env, env.frame())
	if gt != sqlval.TriTrue || bt != sqlval.TriFalse {
		t.Errorf("truthiness good=%v bad=%v, want TRUE/FALSE", gt, bt)
	}
}

func TestFaultNullSafeEqRange(t *testing.T) {
	env := testRow{
		{table: "t0", column: "c0", val: sqlval.Null(), meta: Meta{TypeName: "TINYINT"}},
	}
	good := &Evaluator{D: dialect.MySQL}
	bad := &Evaluator{D: dialect.MySQL, Faults: faults.NewSet(faults.NullSafeEqRange)}

	// Listing 12's inner comparison: c0 <=> <out-of-range> with c0 NULL is
	// correctly FALSE; the faulty engine loses null-safety and says TRUE.
	inner, _ := sqlparse.ParseExpr("t0.c0 <=> 2035382037", dialect.MySQL)
	if gi, _ := good.Eval(inner, env, env.frame()); !gi.Equal(sqlval.Int(0)) {
		t.Errorf("correct inner = %v, want FALSE", gi)
	}
	if bi, _ := bad.Eval(inner, env, env.frame()); !bi.Equal(sqlval.Int(1)) {
		t.Errorf("faulty inner = %v, want TRUE (Listing 12)", bi)
	}

	// So the full Listing 12 predicate stops fetching the row.
	e, _ := sqlparse.ParseExpr("NOT (t0.c0 <=> 2035382037)", dialect.MySQL)
	if gv, _ := good.Eval(e, env, env.frame()); !gv.Equal(sqlval.Int(1)) {
		t.Errorf("correct: %v, want TRUE (row fetched)", gv)
	}
	if bv, _ := bad.Eval(e, env, env.frame()); !bv.Equal(sqlval.Int(0)) {
		t.Errorf("faulty: %v, want FALSE (row not fetched)", bv)
	}

	// In-range constants are untouched by the fault.
	env2 := testRow{
		{table: "t0", column: "c0", val: sqlval.Int(117), meta: Meta{TypeName: "TINYINT"}},
	}
	eq, _ := sqlparse.ParseExpr("t0.c0 <=> 117", dialect.MySQL)
	if v, _ := good.Eval(eq, env2, env2.frame()); !v.Equal(sqlval.Int(1)) {
		t.Errorf("in-range <=> should be TRUE, got %v", v)
	}
	if v, _ := bad.Eval(eq, env2, env2.frame()); !v.Equal(sqlval.Int(1)) {
		t.Errorf("fault must not fire for in-range constants, got %v", v)
	}
}

func TestFaultUnsignedCompare(t *testing.T) {
	env := testRow{
		{table: "t0", column: "c0", val: sqlval.Uint(5), meta: Meta{Unsigned: true, TypeName: "INT UNSIGNED"}},
	}
	e, _ := sqlparse.ParseExpr("t0.c0 > -1", dialect.MySQL)
	good := &Evaluator{D: dialect.MySQL}
	bad := &Evaluator{D: dialect.MySQL, Faults: faults.NewSet(faults.UnsignedCompare)}
	gv, _ := good.Eval(e, env, env.frame())
	bv, _ := bad.Eval(e, env, env.frame())
	if !gv.Equal(sqlval.Int(1)) || !bv.Equal(sqlval.Int(0)) {
		t.Errorf("unsigned compare good=%v bad=%v, want 1/0", gv, bv)
	}
}

func TestFaultLikeAffinityOpt(t *testing.T) {
	env := testRow{
		{table: "t0", column: "c0", val: sqlval.Text("./"), meta: Meta{Affinity: sqlval.AffInteger, Coll: sqlval.CollNoCase}},
	}
	e, _ := sqlparse.ParseExpr("t0.c0 LIKE './'", dialect.SQLite)
	good := &Evaluator{D: dialect.SQLite}
	bad := &Evaluator{D: dialect.SQLite, Faults: faults.NewSet(faults.LikeAffinityOpt)}
	gv, _ := good.Eval(e, env, env.frame())
	bv, _ := bad.Eval(e, env, env.frame())
	if !gv.Equal(sqlval.Int(1)) || !bv.Equal(sqlval.Int(0)) {
		t.Errorf("Listing 7 good=%v bad=%v, want 1/0", gv, bv)
	}
}

func TestFaultIsNotNullOpt(t *testing.T) {
	env := testRow{
		{table: "t0", column: "c0", val: sqlval.Null()},
	}
	e, _ := sqlparse.ParseExpr("NOT (t0.c0 IS NULL)", dialect.SQLite)
	good := &Evaluator{D: dialect.SQLite}
	bad := &Evaluator{D: dialect.SQLite, Faults: faults.NewSet(faults.IsNotNullOpt)}
	gv, _ := good.Eval(e, env, env.frame())
	bv, _ := bad.Eval(e, env, env.frame())
	if !gv.Equal(sqlval.Int(0)) || !bv.Equal(sqlval.Int(1)) {
		t.Errorf("is-not-null opt good=%v bad=%v, want 0/1", gv, bv)
	}
}

func TestFaultAffinityCompare(t *testing.T) {
	env := testRow{
		{table: "t0", column: "c0", val: sqlval.Int(5), meta: Meta{Affinity: sqlval.AffInteger}},
	}
	e, _ := sqlparse.ParseExpr("t0.c0 = '5'", dialect.SQLite)
	good := &Evaluator{D: dialect.SQLite}
	bad := &Evaluator{D: dialect.SQLite, Faults: faults.NewSet(faults.AffinityCompare)}
	gv, _ := good.Eval(e, env, env.frame())
	bv, _ := bad.Eval(e, env, env.frame())
	if !gv.Equal(sqlval.Int(0)) || !bv.Equal(sqlval.Int(1)) {
		t.Errorf("affinity compare good=%v bad=%v, want 0/1", gv, bv)
	}
}

func TestFaultMemoryEngineCast(t *testing.T) {
	env := testRow{
		{table: "t1", column: "c0", val: sqlval.Int(-1), meta: Meta{TableEngine: "MEMORY", TypeName: "INT"}},
		{table: "t0", column: "c0", val: sqlval.Int(0), meta: Meta{TypeName: "INT"}},
	}
	e, _ := sqlparse.ParseExpr("(CAST(t1.c0 AS UNSIGNED)) > (IFNULL('u', t0.c0))", dialect.MySQL)
	good := &Evaluator{D: dialect.MySQL}
	bad := &Evaluator{D: dialect.MySQL, Faults: faults.NewSet(faults.MemoryEngineCast)}
	gv, err := good.Eval(e, env, env.frame())
	if err != nil {
		t.Fatal(err)
	}
	bv, _ := bad.Eval(e, env, env.frame())
	// CAST(-1 AS UNSIGNED) = 2^64-1 > 'u'→0, so correct is TRUE.
	if !gv.Equal(sqlval.Int(1)) || !bv.Equal(sqlval.Int(0)) {
		t.Errorf("Listing 11 good=%v bad=%v, want 1/0", gv, bv)
	}
}

// randomExpr builds a random constant-or-column expression for the
// differential test.
func randomExpr(rng *rand.Rand, d dialect.Dialect, depth int) sqlast.Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return sqlast.Lit(sqlval.Null())
		case 1:
			return sqlast.Lit(sqlval.Int(rng.Int63n(200) - 100))
		case 2:
			return sqlast.Lit(sqlval.Real(float64(rng.Int63n(100)) / 4))
		case 3:
			return sqlast.Lit(sqlval.Text([]string{"", "a", "A", "0.5", "12abc", "./", "x y"}[rng.Intn(7)]))
		case 4:
			if d == dialect.Postgres {
				return sqlast.Lit(sqlval.Bool(rng.Intn(2) == 0))
			}
			return sqlast.Lit(sqlval.Int(int64(rng.Intn(2))))
		default:
			return sqlast.Col("t0", []string{"c0", "c1"}[rng.Intn(2)])
		}
	}
	if d == dialect.Postgres {
		// Keep postgres expressions boolean-rooted and well-typed:
		// comparisons over numeric literals / columns.
		switch rng.Intn(4) {
		case 0:
			return &sqlast.Unary{Op: sqlast.OpNot, X: randomExpr(rng, d, depth-1)}
		case 1:
			op := []sqlast.BinOp{sqlast.OpAnd, sqlast.OpOr}[rng.Intn(2)]
			return &sqlast.Binary{Op: op, L: randomExpr(rng, d, depth-1), R: randomExpr(rng, d, depth-1)}
		case 2:
			op := []sqlast.BinOp{sqlast.OpEq, sqlast.OpLt, sqlast.OpGe}[rng.Intn(3)]
			n := rng.Int63n(100)
			return &sqlast.Binary{Op: op, L: sqlast.Lit(sqlval.Int(n)), R: sqlast.Lit(sqlval.Int(rng.Int63n(100)))}
		default:
			return &sqlast.Unary{Op: sqlast.OpIsNull, X: randomExpr(rng, d, depth-1)}
		}
	}
	switch rng.Intn(10) {
	case 0:
		return &sqlast.Unary{Op: sqlast.OpNot, X: randomExpr(rng, d, depth-1)}
	case 1:
		return &sqlast.Unary{Op: sqlast.OpNeg, X: randomExpr(rng, d, depth-1)}
	case 2:
		ops := []sqlast.BinOp{sqlast.OpAnd, sqlast.OpOr}
		return &sqlast.Binary{Op: ops[rng.Intn(2)], L: randomExpr(rng, d, depth-1), R: randomExpr(rng, d, depth-1)}
	case 3:
		ops := []sqlast.BinOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}
		return &sqlast.Binary{Op: ops[rng.Intn(6)], L: randomExpr(rng, d, depth-1), R: randomExpr(rng, d, depth-1)}
	case 4:
		ops := []sqlast.BinOp{sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod}
		return &sqlast.Binary{Op: ops[rng.Intn(5)], L: randomExpr(rng, d, depth-1), R: randomExpr(rng, d, depth-1)}
	case 5:
		if d == dialect.MySQL {
			return &sqlast.Binary{Op: sqlast.OpNullSafeEq, L: randomExpr(rng, d, depth-1), R: randomExpr(rng, d, depth-1)}
		}
		return &sqlast.Binary{Op: sqlast.OpIsNot, L: randomExpr(rng, d, depth-1), R: randomExpr(rng, d, depth-1)}
	case 6:
		return &sqlast.Between{Not: rng.Intn(2) == 0, X: randomExpr(rng, d, depth-1), Lo: randomExpr(rng, d, depth-1), Hi: randomExpr(rng, d, depth-1)}
	case 7:
		return &sqlast.InList{X: randomExpr(rng, d, depth-1), List: []sqlast.Expr{randomExpr(rng, d, depth-1), randomExpr(rng, d, depth-1)}}
	case 8:
		return &sqlast.Unary{Op: sqlast.OpIsNull, X: randomExpr(rng, d, depth-1)}
	default:
		return &sqlast.Binary{Op: sqlast.OpLike, L: randomExpr(rng, d, depth-1), R: sqlast.Lit(sqlval.Text([]string{"a%", "_", "%", "./"}[rng.Intn(4)]))}
	}
}

// TestDifferentialEvalVsInterp is the backbone correctness test: with no
// faults enabled, the engine evaluator and the oracle interpreter must
// agree on every expression. A disagreement here would be a false positive
// in a PQS campaign.
func TestDifferentialEvalVsInterp(t *testing.T) {
	pivots := []sqlval.Value{
		sqlval.Null(), sqlval.Int(0), sqlval.Int(-3), sqlval.Int(127),
		sqlval.Real(0.5), sqlval.Text("a"), sqlval.Text("12abc"), sqlval.Text(""),
	}
	for _, d := range dialect.All {
		rng := rand.New(rand.NewSource(42))
		for iter := 0; iter < 3000; iter++ {
			v0 := pivots[rng.Intn(len(pivots))]
			v1 := pivots[rng.Intn(len(pivots))]
			if d == dialect.Postgres {
				v1 = sqlval.Bool(rng.Intn(2) == 0) // pg columns typed bool for c1
				if rng.Intn(4) == 0 {
					v1 = sqlval.Null()
				}
			}
			env := testRow{
				{table: "t0", column: "c0", val: v0},
				{table: "t0", column: "c1", val: v1},
			}
			ctx := interp.NewContext(d)
			ctx.Bind("t0", "c0", interp.ColInfo{Val: v0})
			ctx.Bind("t0", "c1", interp.ColInfo{Val: v1})

			e := randomExpr(rng, d, 3)
			engineV, engineErr := New(d).Eval(e, env, env.frame())
			oracleV, oracleErr := interp.Eval(e, ctx)
			if (engineErr == nil) != (oracleErr == nil) {
				t.Fatalf("[%s] error mismatch on %s: engine=%v oracle=%v",
					d, sqlast.ExprSQL(e, d), engineErr, oracleErr)
			}
			if engineErr != nil {
				continue
			}
			if engineV.Kind() != oracleV.Kind() || !engineV.Equal(oracleV) {
				t.Fatalf("[%s] value mismatch on %s (c0=%v c1=%v): engine=%v(%v) oracle=%v(%v)",
					d, sqlast.ExprSQL(e, d), v0, v1, engineV, engineV.Kind(), oracleV, oracleV.Kind())
			}
		}
	}
}

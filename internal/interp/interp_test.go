package interp

import (
	"math"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
)

// evalStr parses and evaluates a constant expression.
func evalStr(t *testing.T, src string, d dialect.Dialect) sqlval.Value {
	t.Helper()
	e, err := sqlparse.ParseExpr(src, d)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(e, NewContext(d))
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestThreeValuedLogic(t *testing.T) {
	cases := map[string]sqlval.Value{
		"NULL AND 0":           sqlval.Int(0),
		"NULL AND 1":           sqlval.Null(),
		"NULL OR 1":            sqlval.Int(1),
		"NULL OR 0":            sqlval.Null(),
		"NOT NULL":             sqlval.Null(),
		"NOT 0":                sqlval.Int(1),
		"NOT 2":                sqlval.Int(0), // any nonzero is TRUE
		"NOT '0.5'":            sqlval.Int(0), // text coerces numerically
		"NOT 'abc'":            sqlval.Int(1), // no numeric prefix → 0 → NOT → 1
		"NULL IS NULL":         sqlval.Int(1),
		"NULL IS NOT 1":        sqlval.Int(1), // Listing 1's key fact
		"1 IS NOT 1":           sqlval.Int(0),
		"NULL = NULL":          sqlval.Null(),
		"1 BETWEEN NULL AND 2": sqlval.Null(),
	}
	for src, want := range cases {
		got := evalStr(t, src, dialect.SQLite)
		if got.Kind() != want.Kind() || !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestListing2TextIntSubtract(t *testing.T) {
	// Correct semantics: '' has numeric prefix 0, 0 - 2851427734582196970
	// must stay exact (the SQLite bug went through float).
	got := evalStr(t, "'' - 2851427734582196970", dialect.SQLite)
	want := sqlval.Int(-2851427734582196970)
	if !got.Equal(want) {
		t.Errorf("'' - big = %v, want %v", got, want)
	}
}

func TestNumericPrefix(t *testing.T) {
	cases := map[string]sqlval.Value{
		"":                    sqlval.Int(0),
		"abc":                 sqlval.Int(0),
		"12abc":               sqlval.Int(12),
		"-3.5xyz":             sqlval.Real(-3.5),
		" 42":                 sqlval.Int(42),
		"1e2z":                sqlval.Real(100),
		"0.5":                 sqlval.Real(0.5),
		".5":                  sqlval.Real(0.5),
		"-":                   sqlval.Int(0),
		"+7":                  sqlval.Int(7),
		"9223372036854775807": sqlval.Int(math.MaxInt64),
	}
	for s, want := range cases {
		got := NumericPrefix(s)
		if got.Kind() != want.Kind() || !got.Equal(want) {
			t.Errorf("NumericPrefix(%q) = %v (%v), want %v", s, got, got.Kind(), want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		d    dialect.Dialect
		want sqlval.Value
	}{
		{"1 + 2", dialect.SQLite, sqlval.Int(3)},
		{"7 / 2", dialect.SQLite, sqlval.Int(3)},
		{"7 / 2", dialect.MySQL, sqlval.Real(3.5)},
		{"7 / 0", dialect.SQLite, sqlval.Null()},
		{"7 % 0", dialect.MySQL, sqlval.Null()},
		{"7 % 3", dialect.SQLite, sqlval.Int(1)},
		{"2.5 * 2", dialect.SQLite, sqlval.Real(5)},
		{"9223372036854775807 + 1", dialect.SQLite, sqlval.Real(9.223372036854776e18)},
		{"'3' + 4", dialect.MySQL, sqlval.Int(7)},
		{"1 - NULL", dialect.SQLite, sqlval.Null()},
		{"- 5", dialect.SQLite, sqlval.Int(-5)},
		{"- '17x'", dialect.SQLite, sqlval.Int(-17)},
		{"3 << 2", dialect.SQLite, sqlval.Int(12)},
		{"12 >> 2", dialect.SQLite, sqlval.Int(3)},
		{"~ 0", dialect.SQLite, sqlval.Int(-1)},
	}
	for _, c := range cases {
		got := evalStr(t, c.src, c.d)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%s [%s] = %v (%v), want %v", c.src, c.d, got, got.Kind(), c.want)
		}
	}
}

func TestPostgresStrictness(t *testing.T) {
	ctx := NewContext(dialect.Postgres)
	for _, src := range []string{"1 AND 0", "'a' + 1", "1 = 'a'", "NOT 5"} {
		e, err := sqlparse.ParseExpr(src, dialect.Postgres)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Eval(e, ctx); err == nil {
			t.Errorf("%s should be a type error in postgres", src)
		} else if _, ok := err.(*TypeError); !ok {
			t.Errorf("%s: expected TypeError, got %T %v", src, err, err)
		}
	}
	// Well-typed forms succeed.
	for _, src := range []string{"TRUE AND FALSE", "1 = 2", "'a' < 'b'", "NOT TRUE", "1 / 0"} {
		e, _ := sqlparse.ParseExpr(src, dialect.Postgres)
		_, err := Eval(e, ctx)
		if src == "1 / 0" {
			if err == nil {
				t.Errorf("1/0 should error in postgres")
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", src, err)
		}
	}
	// Booleans are KBool in postgres.
	if got := evalStr(t, "TRUE AND TRUE", dialect.Postgres); got.Kind() != sqlval.KBool {
		t.Errorf("pg boolean result kind = %v", got.Kind())
	}
}

func TestMySQLCoercions(t *testing.T) {
	cases := map[string]sqlval.Value{
		"'0.5' = 0.5":   sqlval.Int(1), // text→number in numeric comparison
		"'abc' = 0":     sqlval.Int(1), // no prefix → 0
		"'A' = 'a'":     sqlval.Int(1), // default ci collation
		"NULL <=> NULL": sqlval.Int(1),
		"NULL <=> 1":    sqlval.Int(0),
		"2 <=> 2":       sqlval.Int(1),
	}
	for src, want := range cases {
		got := evalStr(t, src, dialect.MySQL)
		if !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestSQLiteStorageClassComparison(t *testing.T) {
	cases := map[string]sqlval.Value{
		"'1' = 1":                  sqlval.Int(0), // no cross-class coercion in comparison
		"'1' > 1":                  sqlval.Int(1), // TEXT sorts above numeric
		"x'00' > ''":               sqlval.Int(1), // BLOB above TEXT
		"'a' < 'b'":                sqlval.Int(1),
		"'A' = 'a' COLLATE NOCASE": sqlval.Int(1),
		"'a ' = 'a' COLLATE RTRIM": sqlval.Int(1),
	}
	for src, want := range cases {
		got := evalStr(t, src, dialect.SQLite)
		if !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		src  string
		d    dialect.Dialect
		want sqlval.Value
	}{
		{"'abc' LIKE 'a%'", dialect.SQLite, sqlval.Int(1)},
		{"'ABC' LIKE 'abc'", dialect.SQLite, sqlval.Int(1)}, // ci by default
		{"'ABC' LIKE 'abc'", dialect.Postgres, sqlval.Bool(false)},
		{"'abc' LIKE '_b_'", dialect.SQLite, sqlval.Int(1)},
		{"'abc' LIKE '_b'", dialect.SQLite, sqlval.Int(0)},
		{"'' LIKE '%'", dialect.SQLite, sqlval.Int(1)},
		{"'./' LIKE './'", dialect.SQLite, sqlval.Int(1)}, // Listing 7 ground truth
		{"'abc' NOT LIKE 'x%'", dialect.SQLite, sqlval.Int(1)},
		{"NULL LIKE '%'", dialect.SQLite, sqlval.Null()},
		{"12 LIKE '12'", dialect.SQLite, sqlval.Int(1)}, // numbers render to text
	}
	for _, c := range cases {
		got := evalStr(t, c.src, c.d)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%s [%s] = %v, want %v", c.src, c.d, got, c.want)
		}
	}
}

func TestCaseSensitiveLikePragma(t *testing.T) {
	ctx := NewContext(dialect.SQLite)
	ctx.CaseSensitiveLike = true
	e, _ := sqlparse.ParseExpr("'ABC' LIKE 'abc'", dialect.SQLite)
	v, err := Eval(e, ctx)
	if err != nil || !v.Equal(sqlval.Int(0)) {
		t.Errorf("case_sensitive_like LIKE = %v, %v", v, err)
	}
}

// TestColumnResolution covers the pivot context: Figure 1's expression
// over bound columns, then one reused Context per row — reset, bound, and
// looked up both directly and through a column reference.
func TestColumnResolution(t *testing.T) {
	ctx := NewContext(dialect.SQLite)
	ctx.Bind("t0", "c0", ColInfo{Val: sqlval.Int(3)})
	ctx.Bind("t0", "c1", ColInfo{Val: sqlval.Bool(true)})
	ctx.Bind("t1", "c0", ColInfo{Val: sqlval.Int(-5)})

	e, _ := sqlparse.ParseExpr("NOT (NOT (t0.c1 OR (t1.c0 > 3)))", dialect.SQLite)
	v, err := Eval(e, ctx)
	if err != nil || !v.Equal(sqlval.Int(1)) {
		t.Errorf("Figure 1 expression = %v, %v; want 1 after double negation", v, err)
	}

	type bind struct {
		table, column string
		v             sqlval.Value
	}
	base := []bind{{"t0", "c0", sqlval.Int(3)}, {"t0", "c1", sqlval.Bool(true)}, {"t1", "c0", sqlval.Int(-5)}}
	for _, tc := range []struct {
		name          string
		binds         []bind
		reset         bool // Reset after binding
		table, column string
		want          sqlval.Value
		ok            bool
	}{
		{name: "qualified", binds: base, table: "t0", column: "c1", want: sqlval.Bool(true), ok: true},
		{name: "qualified-other-table", binds: base, table: "t1", column: "c0", want: sqlval.Int(-5), ok: true},
		{name: "qualified-case-insensitive", binds: base, table: "T0", column: "C1", want: sqlval.Bool(true), ok: true},
		{name: "qualified-unbound", binds: base, table: "t1", column: "c1"},
		{name: "unqualified-unique", binds: base, column: "c1", want: sqlval.Bool(true), ok: true},
		{name: "unqualified-ambiguous", binds: base, column: "c0"},
		{name: "unqualified-unbound", binds: base, column: "c9"},
		{name: "bind-replaces-case-insensitively", binds: append(base[:3:3], bind{"T0", "C0", sqlval.Int(7)}),
			table: "t0", column: "c0", want: sqlval.Int(7), ok: true},
		{name: "replaced-column-stays-unique", binds: append(base[:3:3], bind{"T0", "C1", sqlval.Int(8)}),
			column: "c1", want: sqlval.Int(8), ok: true},
		{name: "reset-unbinds-qualified", binds: base, reset: true, table: "t0", column: "c1"},
		{name: "reset-unbinds-unqualified", binds: base, reset: true, column: "c1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx.Reset(dialect.SQLite)
			ctx.CaseSensitiveLike = true
			for _, b := range tc.binds {
				ctx.Bind(b.table, b.column, ColInfo{Val: b.v})
			}
			if tc.reset {
				ctx.Reset(dialect.MySQL)
				if ctx.D != dialect.MySQL || ctx.CaseSensitiveLike {
					t.Fatalf("Reset(mysql) left dialect %s, case_sensitive_like %v", ctx.D, ctx.CaseSensitiveLike)
				}
			}
			got, ok := ctx.Lookup(tc.table, tc.column)
			if ok != tc.ok || (ok && !got.Val.Equal(tc.want)) {
				t.Errorf("Lookup(%q, %q) = %v, %v; want %v, %v", tc.table, tc.column, got.Val, ok, tc.want, tc.ok)
			}
			if i, _ := ctx.Index(tc.table, tc.column); (i >= 0) != tc.ok || (i >= 0 && !ctx.Values(nil)[i].Equal(tc.want)) {
				t.Errorf("Index(%q, %q) = %d, want a position holding %v (resolves: %v)", tc.table, tc.column, i, tc.want, tc.ok)
			}
			v, err := Eval(sqlast.Col(tc.table, tc.column), ctx)
			if (err == nil) != tc.ok || (err == nil && !v.Equal(tc.want)) {
				t.Errorf("Eval(%s.%s) = %v, %v; want %v (resolves: %v)", tc.table, tc.column, v, err, tc.want, tc.ok)
			}
		})
	}
}

func TestFigure1Rectification(t *testing.T) {
	// Figure 1 step 3-4: expr `NOT (t0.c1 OR (t1.c0 > 3))` is FALSE for the
	// pivot row (c1=TRUE, t1.c0=-5), so rectification wraps it in NOT.
	ctx := NewContext(dialect.SQLite)
	ctx.Bind("t0", "c0", ColInfo{Val: sqlval.Int(3)})
	ctx.Bind("t0", "c1", ColInfo{Val: sqlval.Bool(true)})
	ctx.Bind("t1", "c0", ColInfo{Val: sqlval.Int(-5)})
	e, _ := sqlparse.ParseExpr("NOT (t0.c1 OR (t1.c0 > 3))", dialect.SQLite)
	tb, err := EvalBool(e, ctx)
	if err != nil || tb != sqlval.TriFalse {
		t.Fatalf("inner expr = %v, %v; want FALSE", tb, err)
	}
	tb, err = EvalBool(&sqlast.Unary{Op: sqlast.OpNot, X: e}, ctx)
	if err != nil || tb != sqlval.TriTrue {
		t.Errorf("rectified expr = %v, %v; want TRUE", tb, err)
	}
}

func TestDoubleQuotedFallback(t *testing.T) {
	// "u" with no column u resolves to the string 'u' in SQLite only.
	ctxS := NewContext(dialect.SQLite)
	e, _ := sqlparse.ParseExpr(`"u"`, dialect.SQLite)
	v, err := Eval(e, ctxS)
	if err != nil || v.Kind() != sqlval.KText || v.Str() != "u" {
		t.Errorf("sqlite \"u\" = %v, %v", v, err)
	}
	ctxM := NewContext(dialect.MySQL)
	e2, _ := sqlparse.ParseExpr(`"u"`, dialect.MySQL)
	if v, err := Eval(e2, ctxM); err != nil || v.Kind() != sqlval.KText || v.Str() != "u" {
		t.Errorf("mysql \"u\" should be the string 'u', got %v, %v", v, err)
	}
}

func TestCasts(t *testing.T) {
	cases := []struct {
		src  string
		d    dialect.Dialect
		want sqlval.Value
	}{
		{"CAST('12x' AS INTEGER)", dialect.SQLite, sqlval.Int(12)},
		{"CAST(2.9 AS INTEGER)", dialect.SQLite, sqlval.Int(2)},
		{"CAST(5 AS TEXT)", dialect.SQLite, sqlval.Text("5")},
		{"CAST('-1' AS UNSIGNED)", dialect.MySQL, sqlval.Uint(math.MaxUint64)},
		{"CAST(-1 AS UNSIGNED)", dialect.MySQL, sqlval.Uint(math.MaxUint64)},
		{"CAST(NULL AS INTEGER)", dialect.SQLite, sqlval.Null()},
		{"CAST(1 AS BOOLEAN)", dialect.Postgres, sqlval.Bool(true)},
		{"CAST('abc' AS BLOB)", dialect.SQLite, sqlval.Blob([]byte("abc"))},
	}
	for _, c := range cases {
		got := evalStr(t, c.src, c.d)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%s = %v (%v), want %v", c.src, got, got.Kind(), c.want)
		}
	}
	// Postgres rejects malformed int casts.
	e, _ := sqlparse.ParseExpr("CAST('abc' AS INT)", dialect.Postgres)
	if _, err := Eval(e, NewContext(dialect.Postgres)); err == nil {
		t.Error("pg CAST('abc' AS INT) should error")
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		src  string
		d    dialect.Dialect
		want sqlval.Value
	}{
		{"ABS(-7)", dialect.SQLite, sqlval.Int(7)},
		{"ABS(-2.5)", dialect.SQLite, sqlval.Real(2.5)},
		{"LENGTH('abc')", dialect.SQLite, sqlval.Int(3)},
		{"LENGTH(NULL)", dialect.SQLite, sqlval.Null()},
		{"LOWER('AbC')", dialect.SQLite, sqlval.Text("abc")},
		{"UPPER('abc')", dialect.SQLite, sqlval.Text("ABC")},
		{"COALESCE(NULL, NULL, 3)", dialect.SQLite, sqlval.Int(3)},
		{"IFNULL(NULL, 'x')", dialect.MySQL, sqlval.Text("x")},
		{"IFNULL('u', 7)", dialect.MySQL, sqlval.Text("u")},
		{"NULLIF(1, 1)", dialect.SQLite, sqlval.Null()},
		{"NULLIF(1, 2)", dialect.SQLite, sqlval.Int(1)},
		{"MIN(3, 1, 2)", dialect.SQLite, sqlval.Int(1)},
		{"MAX(3, 1, 2)", dialect.SQLite, sqlval.Int(3)},
		{"TYPEOF(1)", dialect.SQLite, sqlval.Text("integer")},
		{"TYPEOF('x')", dialect.SQLite, sqlval.Text("text")},
		{"CONCAT('a', 1, 'b')", dialect.MySQL, sqlval.Text("a1b")},
	}
	for _, c := range cases {
		got := evalStr(t, c.src, c.d)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%s = %v (%v), want %v", c.src, got, got.Kind(), c.want)
		}
	}
}

func TestConcatOperator(t *testing.T) {
	if got := evalStr(t, "'a' || 'b'", dialect.SQLite); !got.Equal(sqlval.Text("ab")) {
		t.Errorf("concat = %v", got)
	}
	if got := evalStr(t, "1 || 2", dialect.SQLite); !got.Equal(sqlval.Text("12")) {
		t.Errorf("numeric concat = %v", got)
	}
	if got := evalStr(t, "NULL || 'b'", dialect.SQLite); !got.IsNull() {
		t.Errorf("NULL concat = %v", got)
	}
	// MySQL: || is OR.
	if got := evalStr(t, "0 || 1", dialect.MySQL); !got.Equal(sqlval.Int(1)) {
		t.Errorf("mysql || = %v, want logical OR", got)
	}
}

func TestCaseExpr(t *testing.T) {
	cases := map[string]sqlval.Value{
		"CASE WHEN 1 THEN 'yes' ELSE 'no' END":          sqlval.Text("yes"),
		"CASE WHEN 0 THEN 'yes' ELSE 'no' END":          sqlval.Text("no"),
		"CASE WHEN NULL THEN 'yes' ELSE 'no' END":       sqlval.Text("no"),
		"CASE WHEN 0 THEN 1 END":                        sqlval.Null(),
		"CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END":    sqlval.Text("b"),
		"CASE NULL WHEN NULL THEN 'n' ELSE 'other' END": sqlval.Text("other"), // NULL = NULL is UNKNOWN
	}
	for src, want := range cases {
		got := evalStr(t, src, dialect.SQLite)
		if got.Kind() != want.Kind() || !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestInList(t *testing.T) {
	cases := map[string]sqlval.Value{
		"2 IN (1, 2, 3)":  sqlval.Int(1),
		"5 IN (1, 2, 3)":  sqlval.Int(0),
		"5 IN (1, NULL)":  sqlval.Null(),
		"1 IN (1, NULL)":  sqlval.Int(1),
		"2 NOT IN (1, 3)": sqlval.Int(1),
		"NULL IN (1)":     sqlval.Null(),
		"1 IN ()":         sqlval.Int(0),
		"'x' NOT IN ()":   sqlval.Int(1),
	}
	for src, want := range cases {
		got := evalStr(t, src, dialect.SQLite)
		if got.Kind() != want.Kind() || !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestBetween(t *testing.T) {
	cases := map[string]sqlval.Value{
		"2 BETWEEN 1 AND 3":       sqlval.Int(1),
		"0 BETWEEN 1 AND 3":       sqlval.Int(0),
		"2 NOT BETWEEN 1 AND 3":   sqlval.Int(0),
		"NULL BETWEEN 1 AND 3":    sqlval.Null(),
		"'b' BETWEEN 'a' AND 'c'": sqlval.Int(1),
	}
	for src, want := range cases {
		got := evalStr(t, src, dialect.SQLite)
		if got.Kind() != want.Kind() || !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestColumnCollationUsedInComparison(t *testing.T) {
	ctx := NewContext(dialect.SQLite)
	ctx.Bind("t0", "c0", ColInfo{Val: sqlval.Text("A"), Coll: sqlval.CollNoCase})
	e, _ := sqlparse.ParseExpr("t0.c0 = 'a'", dialect.SQLite)
	v, err := Eval(e, ctx)
	if err != nil || !v.Equal(sqlval.Int(1)) {
		t.Errorf("NOCASE column equality = %v, %v; want TRUE", v, err)
	}
}

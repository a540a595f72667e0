package eval_test

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/eval"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
)

func sqliteWorld() *diffWorld {
	w, _ := diffWorldFor(dialect.SQLite)
	return w
}

func TestCompileSlotBinding(t *testing.T) {
	w := sqliteWorld()
	w.rows[0][0] = sqlval.Int(7)
	w.rows[1][3] = sqlval.Int(42)
	ev := eval.New(dialect.SQLite)

	// Qualified and unqualified references bind to fixed slots.
	prog, err := ev.Compile(&sqlast.Binary{
		Op: sqlast.OpAdd,
		L:  sqlast.Col("t0", "c0"),
		R:  sqlast.Col("t1", "dup"),
	}, w, new(eval.Code))
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&eval.Frame{Rows: w.rows})
	if err != nil || v.Int64() != 49 {
		t.Fatalf("got %v, %v; want 49", v, err)
	}

	// A nil frame row is the NULL-extended outer-join side.
	v, err = prog.Eval(&eval.Frame{Rows: [][]sqlval.Value{nil, w.rows[1]}})
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL-extended side: got %v, %v; want NULL", v, err)
	}
}

func TestCompileBindErrors(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)

	// Missing column: surfaced at compile time, once.
	if _, err := ev.Compile(sqlast.Col("t0", "nope"), w, new(eval.Code)); err == nil ||
		!strings.Contains(err.Error(), "no such column: t0.nope") {
		t.Fatalf("missing column: err = %v", err)
	}

	// Ambiguous unqualified column: the distinct diagnostic, not the
	// missing-column one.
	_, err := ev.Compile(&sqlast.ColumnRef{Column: "dup"}, w, new(eval.Code))
	if !eval.IsAmbiguousColumn(err) {
		t.Fatalf("ambiguous column: err = %v, want ambiguous diagnostic", err)
	}
	if !strings.Contains(err.Error(), "ambiguous column name: dup") {
		t.Fatalf("ambiguous column message = %q", err.Error())
	}

	// The tree-walk path reports the same distinction at evaluation time.
	f := &eval.Frame{Rows: w.rows}
	_, err = ev.Eval(&sqlast.ColumnRef{Column: "dup"}, w, f)
	if !eval.IsAmbiguousColumn(err) {
		t.Fatalf("tree-walk ambiguous column: err = %v", err)
	}
	_, err = ev.Eval(sqlast.Col("t0", "nope"), w, f)
	if err == nil || !strings.Contains(err.Error(), "no such column") {
		t.Fatalf("tree-walk missing column: err = %v", err)
	}
}

func TestCompileMaybeStringDemotion(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)

	// An unresolvable double-quoted token demotes to a string constant in
	// the SQLite dialect — same value the interpreter produces.
	prog, err := ev.Compile(&sqlast.ColumnRef{Column: "ghost", MaybeString: true}, w, new(eval.Code))
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&eval.Frame{Rows: w.rows})
	if err != nil || v.Kind() != sqlval.KText || v.Str() != "ghost" {
		t.Fatalf("got %v, %v; want TEXT 'ghost'", v, err)
	}

	// An ambiguous double-quoted token is an identifier error, not a
	// string, in both paths.
	if _, err := ev.Compile(&sqlast.ColumnRef{Column: "dup", MaybeString: true}, w, new(eval.Code)); !eval.IsAmbiguousColumn(err) {
		t.Fatalf("compiled ambiguous MaybeString: err = %v", err)
	}
	if _, err := ev.Eval(&sqlast.ColumnRef{Column: "dup", MaybeString: true}, w, &eval.Frame{Rows: w.rows}); !eval.IsAmbiguousColumn(err) {
		t.Fatalf("tree-walk ambiguous MaybeString: err = %v", err)
	}

	// Outside SQLite the unresolvable token stays a missing column.
	if _, err := eval.New(dialect.Postgres).Compile(&sqlast.ColumnRef{Column: "ghost", MaybeString: true}, w, new(eval.Code)); err == nil {
		t.Fatal("postgres MaybeString should not demote to string")
	}
}

// countingLayout wraps a layout and counts Resolve calls, proving folded
// and slot-bound programs never resolve at evaluation time.
type countingLayout struct {
	eval.Layout
	calls int
}

func (c *countingLayout) Resolve(table, column string) (eval.Slot, eval.Meta, eval.Resolution) {
	c.calls++
	return c.Layout.Resolve(table, column)
}

func TestCompileConstantFolding(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)
	cl := &countingLayout{Layout: w}

	// (1+2)*3 = 9 folds to a constant; no resolution, and evaluation
	// cannot touch the layout.
	prog, err := ev.Compile(&sqlast.Binary{
		Op: sqlast.OpMul,
		L:  &sqlast.Binary{Op: sqlast.OpAdd, L: sqlast.Lit(sqlval.Int(1)), R: sqlast.Lit(sqlval.Int(2))},
		R:  sqlast.Lit(sqlval.Int(3)),
	}, cl, new(eval.Code))
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&eval.Frame{})
	if err != nil || v.Int64() != 9 {
		t.Fatalf("got %v, %v; want 9", v, err)
	}
	if cl.calls != 0 {
		t.Fatalf("constant expression resolved %d columns", cl.calls)
	}

	// A constant subtree that errors must stay lazy: inside a never-taken
	// CASE arm the interpreter raises nothing, so neither may the program.
	pg := eval.New(dialect.Postgres)
	divZero := &sqlast.Binary{Op: sqlast.OpDiv, L: sqlast.Lit(sqlval.Int(1)), R: sqlast.Lit(sqlval.Int(0))}
	caseExpr := &sqlast.Case{
		Whens: []sqlast.WhenClause{{When: sqlast.Lit(sqlval.Bool(true)), Then: sqlast.Lit(sqlval.Int(5))}},
		Else:  divZero,
	}
	prog, err = pg.Compile(caseExpr, w, new(eval.Code))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := prog.Eval(&eval.Frame{Rows: w.rows}); err != nil || v.Int64() != 5 {
		t.Fatalf("lazy error arm: got %v, %v; want 5", v, err)
	}
	// And when the arm is taken, the error fires like the interpreter's.
	prog, err = pg.Compile(divZero, w, new(eval.Code))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Eval(&eval.Frame{Rows: w.rows}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("taken error arm: err = %v", err)
	}
}

func TestCompileCaseSensitiveLikeIsRuntime(t *testing.T) {
	// LIKE must read the pragma at evaluation time, not bake it in at
	// compile time (the engine flips it via PRAGMA between statements
	// while cached programs survive).
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)
	like := &sqlast.Binary{Op: sqlast.OpLike, L: sqlast.Lit(sqlval.Text("ABC")), R: sqlast.Lit(sqlval.Text("abc"))}
	prog, err := ev.Compile(like, w, new(eval.Code))
	if err != nil {
		t.Fatal(err)
	}
	f := &eval.Frame{Rows: w.rows}
	if tb, _ := prog.EvalBool(f); tb != sqlval.TriTrue {
		t.Fatalf("case-insensitive LIKE = %v, want TRUE", tb)
	}
	ev.CaseSensitiveLike = true
	if tb, _ := prog.EvalBool(f); tb != sqlval.TriFalse {
		t.Fatalf("case-sensitive LIKE = %v, want FALSE", tb)
	}
}

// TestCompileAllocs pins the cost of compiling the shapes every campaign
// query is made of: one row per instruction kind. Programs live for one
// statement, and the engine compiles each clause into its statement
// memory's code buffer and releases the buffer with the statement, so a
// compile into a warmed buffer allocates nothing — no Program, no
// per-node closure, no constant wrapper, no function-argument scratch,
// and no error for a reference that demotes to a string.
func TestCompileAllocs(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)
	var code eval.Code
	for _, tc := range []struct{ kind, src string }{
		{"column", "t0.c0"},
		{"comparison", "t0.c0 = 1"},
		{"and/or", "t0.c0 > 1 AND t1.c3 < 2 OR t0.c2 IS NULL"},
		{"between", "t0.c0 BETWEEN 1 AND t1.c3"},
		{"in list", "t0.c0 IN (1, 2, t1.c3)"},
		{"case operand", "CASE t0.c0 WHEN 1 THEN 'a' WHEN t1.c3 THEN 'b' ELSE 'c' END"},
		{"case searched", "CASE WHEN t0.c0 > 1 THEN t1.c3 END"},
		{"cast", "CAST(t0.c1 AS INTEGER)"},
		{"function", "ABS(t0.c0) + COALESCE(t1.c3, 0)"},
		{"like", "t0.c1 LIKE 'a%'"},
		{"collate", "t0.c1 COLLATE NOCASE = 'A'"},
		{"folded constant", "(1 + 2) * 3 = t0.c0"},
		{"demoted MaybeString", `"ghost" = t0.c1`},
	} {
		expr, err := sqlparse.ParseExpr(tc.src, dialect.SQLite)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		compile := func() {
			mk := code.Mark()
			if _, err := ev.Compile(expr, w, &code); err != nil {
				t.Fatalf("%s: %v", tc.kind, err)
			}
			code.Release(mk)
		}
		compile() // warm the buffer
		if allocs := testing.AllocsPerRun(100, compile); allocs != 0 {
			t.Errorf("Compile(%s) [%s] allocates %.1f times per run into a reused buffer, want 0", tc.src, tc.kind, allocs)
		}
	}
}

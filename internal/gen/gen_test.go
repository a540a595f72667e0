package gen

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

func testCols() []ColumnPick {
	return []ColumnPick{
		{Table: "t0", Column: schema.ColumnInfo{Name: "c0", TypeName: "INT"}},
		{Table: "t0", Column: schema.ColumnInfo{Name: "c1", TypeName: "TEXT"}},
		{Table: "t0", Column: schema.ColumnInfo{Name: "c2", TypeName: "BOOLEAN"}},
	}
}

func TestExprGenDeterministic(t *testing.T) {
	mk := func() []string {
		eg := &ExprGen{Rnd: NewRand(dialect.SQLite, 9), Cols: testCols(), MaxDepth: 3}
		var out []string
		for i := 0; i < 50; i++ {
			out = append(out, sqlast.ExprSQL(eg.Generate(), dialect.SQLite))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestExprGenResetMatchesFresh holds Reset to its promise: one generator
// reset for each of several column pools, of different sizes and type
// mixes, draws exactly the expressions a new generator per pool draws.
func TestExprGenResetMatchesFresh(t *testing.T) {
	pools := [][]ColumnPick{
		testCols(),
		{{Table: "t1", Column: schema.ColumnInfo{Name: "c0", TypeName: "TEXT"}}},
		append(testCols(), ColumnPick{Table: "t2", Column: schema.ColumnInfo{Name: "c9", TypeName: "REAL"}},
			ColumnPick{Table: "t2", Column: schema.ColumnInfo{Name: "c8", TypeName: "BOOLEAN"}}),
		{{Table: "t3", Column: schema.ColumnInfo{Name: "c0", TypeName: "BOOLEAN"}}},
	}
	hints := []sqlval.Value{sqlval.Int(3), sqlval.Text("x")}
	for _, d := range dialect.All {
		freshRnd, reusedRnd := NewRand(d, 17), NewRand(d, 17)
		var reused ExprGen
		for round := 0; round < 3; round++ {
			for pi, cols := range pools {
				fresh := &ExprGen{Rnd: freshRnd, Cols: cols, Hints: hints, MaxDepth: 3}
				reused.Reset(reusedRnd, cols, hints, 3)
				for i := 0; i < 40; i++ {
					want := sqlast.ExprSQL(fresh.Generate(), d)
					if got := sqlast.ExprSQL(reused.Generate(), d); got != want {
						t.Fatalf("[%s] pool %d, expression %d: reset generator drew %q, fresh %q", d, pi, i, got, want)
					}
				}
			}
		}
	}
}

func TestExprGenDepthBound(t *testing.T) {
	for _, d := range dialect.All {
		eg := &ExprGen{Rnd: NewRand(d, 3), Cols: testCols(), MaxDepth: 3}
		for i := 0; i < 300; i++ {
			e := eg.Generate()
			// Depth counts nodes; MaxDepth bounds recursion depth, and a
			// few constructs (BETWEEN bounds, IN lists) add one leaf
			// level beyond it.
			if got := sqlast.Depth(e); got > eg.MaxDepth+2 {
				t.Fatalf("[%s] depth %d exceeds bound: %s", d, got, sqlast.ExprSQL(e, d))
			}
		}
	}
}

// Postgres-profile expressions must be boolean-typed: the interpreter
// evaluates every generated condition without type errors on a typed pivot.
func TestExprGenPostgresWellTyped(t *testing.T) {
	eg := &ExprGen{Rnd: NewRand(dialect.Postgres, 5), Cols: testCols(), MaxDepth: 3}
	ctx := interp.NewContext(dialect.Postgres)
	ctx.Bind("t0", "c0", interp.ColInfo{Val: sqlval.Int(1)})
	ctx.Bind("t0", "c1", interp.ColInfo{Val: sqlval.Text("a")})
	ctx.Bind("t0", "c2", interp.ColInfo{Val: sqlval.Bool(true)})
	typeErrors := 0
	for i := 0; i < 1000; i++ {
		e := eg.Generate()
		if _, err := interp.EvalBool(e, ctx); err != nil {
			if _, ok := err.(*interp.TypeError); ok {
				typeErrors++
				continue
			}
			t.Fatalf("unexpected error: %v on %s", err, sqlast.ExprSQL(e, dialect.Postgres))
		}
	}
	if typeErrors != 0 {
		t.Errorf("typed generation produced %d/1000 type errors", typeErrors)
	}
}

func TestValueOfCategory(t *testing.T) {
	rnd := NewRand(dialect.Postgres, 1)
	for i := 0; i < 200; i++ {
		if v := rnd.ValueOfCategory(CatInt); !v.IsNull() && v.Kind() != sqlval.KInt {
			t.Fatalf("CatInt produced %v", v.Kind())
		}
		if v := rnd.ValueOfCategory(CatBool); !v.IsNull() && v.Kind() != sqlval.KBool {
			t.Fatalf("CatBool produced %v", v.Kind())
		}
		if v := rnd.ValueOfCategory(CatText); !v.IsNull() && v.Kind() != sqlval.KText {
			t.Fatalf("CatText produced %v", v.Kind())
		}
	}
}

func TestCategoryOfType(t *testing.T) {
	cases := map[string]Category{
		"INT":     CatInt,
		"TINYINT": CatInt,
		"serial":  CatInt,
		"TEXT":    CatText,
		"REAL":    CatReal,
		"BOOLEAN": CatBool,
		"":        CatAny,
	}
	for tn, want := range cases {
		if got := CategoryOfType(tn); got != want {
			t.Errorf("CategoryOfType(%q) = %v, want %v", tn, got, want)
		}
	}
}

// Tables end up populated, and hints accumulate inserted values.
func TestStateGenPopulates(t *testing.T) {
	e := engine.Open(dialect.SQLite)
	sg := &StateGen{Rnd: NewRand(dialect.SQLite, 4), E: e, MinRows: 2, MaxRows: 5}
	err := sg.BuildDatabase(func(st sqlast.Stmt) error {
		_, _ = e.Exec(sqlast.SQL(st, dialect.SQLite))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Tables()) == 0 {
		t.Fatal("no tables created")
	}
	for _, tn := range e.Tables() {
		if e.RowCount(tn) == 0 {
			t.Errorf("table %s left empty", tn)
		}
	}
	if len(sg.Hints) == 0 {
		t.Error("no hints accumulated")
	}
}

// TestStateGenResetMatchesFresh holds StateGen.Reset to its promise: one
// generator reset per database draws exactly the statements a new
// generator per database draws. Each database's statements are rendered
// only after its session scripts and extra DML are drawn, so a statement
// whose arena memory a later one overwrote shows too.
func TestStateGenResetMatchesFresh(t *testing.T) {
	hints := []sqlval.Value{sqlval.Text("aBc"), sqlval.Int(7)}
	for _, d := range dialect.All {
		var reused StateGen
		for seed := int64(1); seed <= 12; seed++ {
			fresh := &StateGen{Hints: append([]sqlval.Value(nil), hints...)}
			want := stateStream(t, fresh, d, seed, func(rnd *Rand, e *engine.Engine) {
				fresh.Rnd, fresh.E = rnd, e
			})
			got := stateStream(t, &reused, d, seed, func(rnd *Rand, e *engine.Engine) {
				reused.Reset(rnd, e, hints)
			})
			if len(got) != len(want) {
				t.Fatalf("[%s] seed %d: reset generator drew %d statements, fresh %d", d, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("[%s] seed %d, statement %d: reset generator drew %q, fresh %q", d, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// stateStream readies sg (through ready) on a new engine, builds a
// database, then draws three session scripts and three extra DML
// statements, and renders everything it drew.
func stateStream(t *testing.T, sg *StateGen, d dialect.Dialect, seed int64, ready func(*Rand, *engine.Engine)) []string {
	t.Helper()
	e := engine.Open(d)
	ready(NewRand(d, seed), e)
	var stmts []sqlast.Stmt
	apply := func(st sqlast.Stmt) error {
		stmts = append(stmts, st)
		_, _ = e.ExecStmt(st)
		return nil
	}
	if err := sg.BuildDatabase(apply); err != nil {
		t.Fatal(err)
	}
	for _, script := range sg.SessionScripts(3) {
		stmts = append(stmts, script...)
	}
	for i := 0; i < 3; i++ {
		if err := sg.RandomDML(apply); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]string, len(stmts))
	for i, st := range stmts {
		out[i] = sqlast.SQL(st, d)
	}
	return out
}

func TestMutatedHintVariants(t *testing.T) {
	eg := &ExprGen{
		Rnd:   NewRand(dialect.SQLite, 8),
		Cols:  testCols(),
		Hints: []sqlval.Value{sqlval.Text("aBc"), sqlval.Text("x  ")},
	}
	sawCaseToggle, sawSpace := false, false
	for i := 0; i < 500; i++ {
		e := eg.mutatedHint(eg.Cols[0])
		lit, ok := e.(*sqlast.Literal)
		if !ok || lit.Val.Kind() != sqlval.KText {
			continue
		}
		s := lit.Val.Str()
		if s == "AbC" {
			sawCaseToggle = true
		}
		if s == "aBc  " || s == "x" {
			sawSpace = true
		}
	}
	if !sawCaseToggle || !sawSpace {
		t.Errorf("hint mutation variants missing: case=%v space=%v", sawCaseToggle, sawSpace)
	}
}

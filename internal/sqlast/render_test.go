package sqlast

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlval"
)

func TestRenderListing1Shape(t *testing.T) {
	// CREATE TABLE t0(c0); CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
	// SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1;
	ct := &CreateTable{Name: "t0", Columns: []ColumnDef{{Name: "c0"}}}
	if got := SQL(ct, dialect.SQLite); got != "CREATE TABLE t0(c0)" {
		t.Errorf("create table: %q", got)
	}
	ci := &CreateIndex{
		Name: "i0", Table: "t0",
		Parts: []IndexedExpr{{X: Lit(sqlval.Int(1))}},
		Where: &Unary{Op: OpNotNull, X: Col("", "c0")},
	}
	if got := SQL(ci, dialect.SQLite); got != "CREATE INDEX i0 ON t0(1) WHERE (c0 IS NOT NULL)" {
		t.Errorf("create index: %q", got)
	}
	sel := &Select{
		Cols:  []ResultCol{{X: Col("", "c0")}},
		From:  []TableRef{{Name: "t0"}},
		Where: &Binary{Op: OpIsNot, L: Col("t0", "c0"), R: Lit(sqlval.Int(1))},
	}
	if got := SQL(sel, dialect.SQLite); got != "SELECT c0 FROM t0 WHERE (t0.c0 IS NOT 1)" {
		t.Errorf("select: %q", got)
	}
}

func TestRenderInsertConflict(t *testing.T) {
	ins := &Insert{
		Table:   "t0",
		Columns: []string{"c0"},
		Rows:    [][]Expr{{Lit(sqlval.Int(0))}, {Lit(sqlval.Null())}},
	}
	want := "INSERT INTO t0(c0) VALUES (0), (NULL)"
	if got := SQL(ins, dialect.SQLite); got != want {
		t.Errorf("insert: %q, want %q", got, want)
	}
	ins.Conflict = ConflictIgnore
	if got := SQL(ins, dialect.SQLite); !strings.HasPrefix(got, "INSERT OR IGNORE ") {
		t.Errorf("sqlite insert or ignore: %q", got)
	}
	if got := SQL(ins, dialect.MySQL); !strings.HasPrefix(got, "INSERT IGNORE ") {
		t.Errorf("mysql insert ignore: %q", got)
	}
	ins.Conflict = ConflictReplace
	if got := SQL(ins, dialect.SQLite); !strings.HasPrefix(got, "INSERT OR REPLACE ") {
		t.Errorf("insert or replace: %q", got)
	}
}

func TestRenderCreateTableVariants(t *testing.T) {
	ct := &CreateTable{
		Name: "t0",
		Columns: []ColumnDef{
			{Name: "c0", TypeName: "TEXT", PrimaryKey: true},
		},
		WithoutRowid: true,
	}
	want := "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID"
	if got := SQL(ct, dialect.SQLite); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	my := &CreateTable{
		Name:    "t1",
		Columns: []ColumnDef{{Name: "c0", TypeName: "INT"}},
		Engine:  "MEMORY",
	}
	if got := SQL(my, dialect.MySQL); got != "CREATE TABLE t1(c0 INT) ENGINE = MEMORY" {
		t.Errorf("mysql engine: %q", got)
	}
	pg := &CreateTable{
		Name:     "t1",
		Columns:  []ColumnDef{{Name: "c0", TypeName: "INT"}},
		Inherits: "t0",
	}
	if got := SQL(pg, dialect.Postgres); got != "CREATE TABLE t1(c0 INT) INHERITS (t0)" {
		t.Errorf("pg inherits: %q", got)
	}
	pk := &CreateTable{
		Name: "t0",
		Columns: []ColumnDef{
			{Name: "c0", Collate: "RTRIM"},
			{Name: "c1", TypeName: "BLOB", Unique: true},
		},
		PrimaryKey:   []string{"c0", "c1"},
		WithoutRowid: true,
	}
	want = "CREATE TABLE t0(c0 COLLATE RTRIM, c1 BLOB UNIQUE, PRIMARY KEY (c0, c1)) WITHOUT ROWID"
	if got := SQL(pk, dialect.SQLite); got != want {
		t.Errorf("table pk: %q, want %q", got, want)
	}
}

func TestRenderExprForms(t *testing.T) {
	cases := []struct {
		e    Expr
		d    dialect.Dialect
		want string
	}{
		{&Unary{Op: OpNot, X: Col("t0", "c1")}, dialect.SQLite, "(NOT t0.c1)"},
		{&Unary{Op: OpIsNull, X: Col("", "c0")}, dialect.SQLite, "(c0 IS NULL)"},
		{&Binary{Op: OpNullSafeEq, L: Col("t0", "c0"), R: Lit(sqlval.Int(2035382037))}, dialect.MySQL, "(t0.c0 <=> 2035382037)"},
		{&Between{X: Col("", "c0"), Lo: Lit(sqlval.Int(1)), Hi: Lit(sqlval.Int(5))}, dialect.SQLite, "(c0 BETWEEN 1 AND 5)"},
		{&InList{X: Col("", "c0"), Not: true, List: []Expr{Lit(sqlval.Int(1)), Lit(sqlval.Null())}}, dialect.SQLite, "(c0 NOT IN (1, NULL))"},
		{&Cast{X: Col("t1", "c0"), TypeName: "UNSIGNED"}, dialect.MySQL, "CAST(t1.c0 AS UNSIGNED)"},
		{&Collate{X: Col("", "c0"), Coll: sqlval.CollNoCase}, dialect.SQLite, "(c0 COLLATE NOCASE)"},
		{&FuncCall{Name: "IFNULL", Args: []Expr{Lit(sqlval.Text("u")), Col("t0", "c0")}}, dialect.MySQL, "IFNULL('u', t0.c0)"},
		{&Case{Whens: []WhenClause{{When: Col("", "c0"), Then: Lit(sqlval.Int(1))}}, Else: Lit(sqlval.Int(0))}, dialect.SQLite, "CASE WHEN c0 THEN 1 ELSE 0 END"},
		{&Unary{Op: OpBitNot, X: Lit(sqlval.Int(3))}, dialect.SQLite, "(~ 3)"},
	}
	for _, c := range cases {
		if got := ExprSQL(c.e, c.d); got != c.want {
			t.Errorf("ExprSQL = %q, want %q", got, c.want)
		}
	}
}

func TestRenderSelectFull(t *testing.T) {
	sel := &Select{
		Distinct: true,
		Cols:     []ResultCol{{Star: true}},
		From:     []TableRef{{Name: "t1"}, {Name: "t2", Alias: "x"}},
		Where:    &Binary{Op: OpGt, L: Col("t1", "c0"), R: Lit(sqlval.Int(3))},
		OrderBy:  []OrderItem{{X: Col("t1", "c0"), Desc: true}},
		Limit:    Lit(sqlval.Int(10)),
		Offset:   Lit(sqlval.Int(2)),
	}
	want := "SELECT DISTINCT * FROM t1, t2 AS x WHERE (t1.c0 > 3) ORDER BY t1.c0 DESC LIMIT 10 OFFSET 2"
	if got := SQL(sel, dialect.SQLite); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestRenderMaintenanceAndOptions(t *testing.T) {
	cases := []struct {
		s    Stmt
		d    dialect.Dialect
		want string
	}{
		{&Maintenance{Op: MaintVacuum}, dialect.SQLite, "VACUUM"},
		{&Maintenance{Op: MaintVacuumFull}, dialect.Postgres, "VACUUM FULL"},
		{&Maintenance{Op: MaintReindex, Table: "t0"}, dialect.SQLite, "REINDEX t0"},
		{&Maintenance{Op: MaintAnalyze}, dialect.Postgres, "ANALYZE"},
		{&Maintenance{Op: MaintRepairTable, Table: "t0"}, dialect.MySQL, "REPAIR TABLE t0"},
		{&Maintenance{Op: MaintCheckTableForUpgrade, Table: "t0"}, dialect.MySQL, "CHECK TABLE t0 FOR UPGRADE"},
		{&Maintenance{Op: MaintDiscard}, dialect.Postgres, "DISCARD PLANS"},
		{&SetOption{Name: "case_sensitive_like", Value: Lit(sqlval.Int(0))}, dialect.SQLite, "PRAGMA case_sensitive_like = 0"},
		{&SetOption{Global: true, Name: "key_cache_division_limit", Value: Lit(sqlval.Int(100))}, dialect.MySQL, "SET GLOBAL key_cache_division_limit = 100"},
	}
	for _, c := range cases {
		if got := SQL(c.s, c.d); got != c.want {
			t.Errorf("SQL = %q, want %q", got, c.want)
		}
	}
}

func TestStatementKinds(t *testing.T) {
	cases := map[Stmt]string{
		&CreateTable{}:                    "CREATE TABLE",
		&CreateIndex{}:                    "CREATE INDEX",
		&CreateView{}:                     "CREATE VIEW",
		&CreateStats{}:                    "CREATE STATS",
		&Insert{}:                         "INSERT",
		&Update{}:                         "UPDATE",
		&Delete{}:                         "DELETE",
		&AlterTable{}:                     "ALTER TABLE",
		&Drop{Obj: DropIndex}:             "DROP INDEX",
		&Drop{Obj: DropTable}:             "DROP TABLE",
		&Select{}:                         "SELECT",
		&Maintenance{Op: MaintVacuum}:     "VACUUM",
		&Maintenance{Op: MaintReindex}:    "REINDEX",
		&Maintenance{Op: MaintCheckTable}: "REPAIR/CHECK TABLE",
		&SetOption{}:                      "OPTION",
	}
	for s, want := range cases {
		if got := s.Kind(); got != want {
			t.Errorf("Kind(%T) = %q, want %q", s, got, want)
		}
	}
}

func TestWalkAndColumnsUsed(t *testing.T) {
	e := &Binary{
		Op: OpOr,
		L:  &Unary{Op: OpNot, X: Col("t0", "c1")},
		R:  &Binary{Op: OpGt, L: Col("t1", "c0"), R: &Binary{Op: OpAdd, L: Col("t0", "c1"), R: Lit(sqlval.Int(3))}},
	}
	cols := ColumnsUsed(e)
	if len(cols) != 2 {
		t.Fatalf("ColumnsUsed = %v, want 2 distinct", cols)
	}
	if cols[0] != (ColumnRef{Table: "t0", Column: "c1"}) || cols[1] != (ColumnRef{Table: "t1", Column: "c0"}) {
		t.Errorf("ColumnsUsed order wrong: %v", cols)
	}
	count := 0
	WalkExprs(e, func(Expr) bool { count++; return true })
	if count != 8 {
		t.Errorf("WalkExprs visited %d nodes, want 8", count)
	}
}

func TestDepth(t *testing.T) {
	if d := Depth(Lit(sqlval.Int(1))); d != 1 {
		t.Errorf("depth of literal = %d", d)
	}
	e := &Unary{Op: OpNot, X: &Binary{Op: OpOr, L: Col("t0", "c1"), R: &Binary{Op: OpGt, L: Col("t1", "c0"), R: Lit(sqlval.Int(3))}}}
	if d := Depth(e); d != 4 {
		t.Errorf("depth = %d, want 4", d)
	}
}

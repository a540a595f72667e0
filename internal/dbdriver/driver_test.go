package dbdriver

import (
	"database/sql"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
)

func TestDriverRoundTrip(t *testing.T) {
	db, err := sql.Open("pqs", "sqlite")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Pin a single connection: each driver connection is its own
	// in-memory database.
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE t0(c0, c1 TEXT)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO t0(c0, c1) VALUES (1, 'a'), (NULL, 'b')`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Errorf("RowsAffected = %d", n)
	}

	rowsIter, err := db.Query(`SELECT c0, c1 FROM t0 ORDER BY c1`)
	if err != nil {
		t.Fatal(err)
	}
	defer rowsIter.Close()
	cols, _ := rowsIter.Columns()
	if len(cols) != 2 || cols[0] != "c0" {
		t.Errorf("columns = %v", cols)
	}
	var got []struct {
		c0 sql.NullInt64
		c1 string
	}
	for rowsIter.Next() {
		var r struct {
			c0 sql.NullInt64
			c1 string
		}
		if err := rowsIter.Scan(&r.c0, &r.c1); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != 2 || !got[0].c0.Valid || got[0].c0.Int64 != 1 || got[1].c0.Valid {
		t.Errorf("rows = %+v", got)
	}
}

func TestDriverFaultDSN(t *testing.T) {
	db, err := sql.Open("pqs", "sqlite?fault=sqlite.partial-index-not-null")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	setup := []string{
		`CREATE TABLE t0(c0)`,
		`CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL`,
		`INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)`,
	}
	for _, s := range setup {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n != 3 {
		t.Errorf("Listing 1 through database/sql: %d rows, want 3 (bug present)", n)
	}
}

// Repeated fault= parameters must merge into one set rather than the last
// one silently winning.
func TestDriverRepeatedFaultParamsMerge(t *testing.T) {
	conn, err := (&Driver{}).Open("sqlite?fault=sqlite.partial-index-not-null&fault=sqlite.rtrim-compare")
	if err != nil {
		t.Fatal(err)
	}
	eng := conn.(interface{ Engine() *engine.Engine }).Engine()
	fs := eng.Faults()
	if fs == nil {
		t.Fatal("no fault set on engine")
	}
	for _, f := range []faults.Fault{faults.PartialIndexNotNull, faults.RtrimCompare} {
		if !fs.Has(f) {
			t.Errorf("fault %s lost from merged set (have %v)", f, fs.List())
		}
	}
}

// disable=planner must map to engine.WithoutPlanner: every access path is
// a full scan.
func TestDriverPlannerOffDSN(t *testing.T) {
	conn, err := (&Driver{}).Open("sqlite?disable=planner")
	if err != nil {
		t.Fatal(err)
	}
	eng := conn.(interface{ Engine() *engine.Engine }).Engine()
	for _, s := range []string{
		`CREATE TABLE t0(c0 INT)`,
		`CREATE INDEX i0 ON t0(c0)`,
		`INSERT INTO t0 VALUES (1), (2), (3)`,
	} {
		if _, err := eng.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := eng.PlanSQL(`SELECT * FROM t0 WHERE c0 = 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(strings.ToUpper(p.Detail()), "INDEX") {
			t.Errorf("disable=planner still chose an index path: %s", p.Detail())
		}
	}
	if _, err := (&Driver{}).Open("sqlite?disable=sideways"); err == nil {
		t.Error("unknown feature to disable should fail")
	}
}

// The driver reports per-column scan types inferred from the result.
func TestDriverColumnTypeScanType(t *testing.T) {
	db, err := sql.Open("pqs", "sqlite")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	for _, s := range []string{
		`CREATE TABLE t0(c0 INT, c1 TEXT, c2 REAL, c3)`,
		`INSERT INTO t0 VALUES (1, 'a', 1.5, NULL)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT c0, c1, c2, c3 FROM t0`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"int64", "string", "float64", ""}
	for i, ct := range cts {
		got := ct.ScanType().String()
		if want[i] == "" {
			// All-NULL column: scan type is the dynamic interface{}.
			if got != "interface {}" {
				t.Errorf("col %d scan type = %s, want interface{}", i, got)
			}
			continue
		}
		if got != want[i] {
			t.Errorf("col %d scan type = %s, want %s", i, got, want[i])
		}
	}
	// Release the pinned connection before issuing more statements: the
	// pool has one connection and an open Rows holds it.
	rows.Close()

	// A dynamically-typed column whose rows disagree on kind must report
	// interface{} so ScanType-allocated destinations never fail mid-scan.
	if _, err := db.Exec(`CREATE TABLE t1(c0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t1 VALUES (1), ('a')`); err != nil {
		t.Fatal(err)
	}
	mixed, err := db.Query(`SELECT c0 FROM t1`)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	mcts, err := mixed.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	if got := mcts[0].ScanType().String(); got != "interface {}" {
		t.Errorf("mixed-kind column scan type = %s, want interface{}", got)
	}
}

func TestDriverErrors(t *testing.T) {
	if _, err := (&Driver{}).Open("oracle"); err == nil {
		t.Error("unknown dialect should fail")
	}
	if _, err := (&Driver{}).Open("sqlite?fault=nope"); err == nil {
		t.Error("unknown fault should fail")
	}
	if _, err := (&Driver{}).Open("sqlite?rows=3"); err == nil {
		t.Error("unknown parameter should fail")
	}
	db, _ := sql.Open("pqs", "postgres")
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec(`SELECT * FROM missing`); err == nil {
		t.Error("missing table should error")
	}
}

// TestDriverTransactions drives real BEGIN/COMMIT/ROLLBACK through the
// database/sql Tx surface: committed writes stick, rolled-back writes
// vanish, and writes staged inside an open Tx stay invisible to reads on
// the same snapshot-isolated session until Commit.
func TestDriverTransactions(t *testing.T) {
	db, err := sql.Open("pqs", "sqlite")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec(`CREATE TABLE t0(c0 INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t0(c0) VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if _, err := tx.Exec(`INSERT INTO t0(c0) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM t0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("after commit COUNT = %d, want 2", n)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if _, err := tx.Exec(`DELETE FROM t0`); err != nil {
		t.Fatal(err)
	}
	if err := tx.QueryRow(`SELECT COUNT(*) FROM t0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("inside tx after DELETE COUNT = %d, want 0", n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if err := db.QueryRow(`SELECT COUNT(*) FROM t0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("after rollback COUNT = %d, want 2", n)
	}
}

// TestDriverRowsOutliveStatements iterates a transaction's query rows while
// the same transaction runs other statements on the connection: the rows
// database/sql has yet to read must stay intact.
func TestDriverRowsOutliveStatements(t *testing.T) {
	db, err := sql.Open("pqs", "sqlite")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec(`CREATE TABLE t0(c0 INTEGER, c1 TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	defer tx.Rollback()
	rows, err := tx.Query(`SELECT c0, c1 FROM t0`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		var c0 int64
		var c1 string
		if err := rows.Scan(&c0, &c1); err != nil {
			t.Fatalf("Scan after %d rows: %v", len(got), err)
		}
		got = append(got, fmt.Sprintf("%d:%s", c0, c1))
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO t0(c0, c1) VALUES (%d, 'x')`, 10+c0)); err != nil {
			t.Fatal(err)
		}
		var n int
		if err := tx.QueryRow(`SELECT COUNT(*) FROM t0`).Scan(&n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(got, ","); s != "1:a,2:b,3:c" {
		t.Errorf("rows read between statements = %s, want 1:a,2:b,3:c", s)
	}
}

// TestDriverStorageDSN opens a durable connection through the DSN
// storage parameter, checks it works, and checks Close removes the
// connection's database directory.
func TestDriverStorageDSN(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	db, err := sql.Open("pqs", "sqlite?storage=pager")
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxOpenConns(1)
	if _, err := db.Exec(`CREATE TABLE t0(c0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t0(c0) VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM t0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("COUNT(*) = %d, want 2", n)
	}
	dirs, _ := filepath.Glob(filepath.Join(tmp, "pager-*"))
	if len(dirs) != 1 {
		t.Fatalf("expected 1 pager dir while open, found %v", dirs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dirs[0]); !os.IsNotExist(err) {
		t.Errorf("pager dir %s survived Close", dirs[0])
	}

	// storage=memory is the explicit default; anything else is rejected.
	mem, err := sql.Open("pqs", "mysql?storage=memory")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Exec(`CREATE TABLE t0(c0 INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Driver{}).Open("sqlite?storage=tape"); err == nil {
		t.Error("unknown storage mode should fail")
	}
}

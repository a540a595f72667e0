package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func rowCount(t *testing.T, e *Engine, sql string) int {
	t.Helper()
	res := mustExec(t, e, sql)
	return len(res.Rows)
}

func TestCreateInsertSelect(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)`)
	res := mustExec(t, e, `SELECT c0 FROM t0`)
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	if res.Columns[0] != "c0" {
		t.Errorf("column name %q", res.Columns[0])
	}
}

func TestWhereFilter(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)`)
	if n := rowCount(t, e, `SELECT c0 FROM t0 WHERE c0 > 1`); n != 2 {
		t.Errorf("c0 > 1: %d rows, want 2", n)
	}
	if n := rowCount(t, e, `SELECT c0 FROM t0 WHERE c0 IS NULL`); n != 1 {
		t.Errorf("IS NULL: %d rows, want 1", n)
	}
	// Three-valued logic: NULL row is not fetched by c0 > 1 or NOT(c0 > 1).
	if n := rowCount(t, e, `SELECT c0 FROM t0 WHERE NOT (c0 > 1)`); n != 2 {
		t.Errorf("NOT(c0>1): %d rows, want 2", n)
	}
}

// Listing 1: the canonical PQS example.
func TestListing1PartialIndex(t *testing.T) {
	setup := `CREATE TABLE t0(c0);
		CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
		INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL)`
	query := `SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1`

	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 4 {
		t.Fatalf("correct engine: %d rows, want 4 (incl. NULL)", n)
	}

	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.PartialIndexNotNull)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 3 {
		t.Fatalf("faulty engine: %d rows, want 3 (NULL row dropped)", n)
	}
}

// Listing 4: NOCASE index on WITHOUT ROWID PK. The faulty engine
// deduplicates case-variant keys in the index, so index-served lookups
// miss one of the rows.
func TestListing4NocaseUnique(t *testing.T) {
	setup := `CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID;
		CREATE INDEX i0 ON t0(c0 COLLATE NOCASE);
		INSERT INTO t0(c0) VALUES ('A');
		INSERT INTO t0(c0) VALUES ('a')`
	query := `SELECT * FROM t0 WHERE c0 = 'a'`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1", n)
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.NocaseUniqueIndex)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 0 {
		t.Fatalf("faulty: %d rows, want 0 (the 'a' index entry was dropped)", n)
	}
	// Both rows are still in the table itself.
	if n := rowCount(t, bad, `SELECT * FROM t0`); n != 2 {
		t.Fatalf("heap should hold both rows, got %d", n)
	}
}

// Listing 5-like: RTRIM collation index lookup.
func TestListing5RtrimIndex(t *testing.T) {
	setup := `CREATE TABLE t0(c0 TEXT COLLATE RTRIM);
		CREATE INDEX i0 ON t0(c0);
		INSERT INTO t0(c0) VALUES (' '), ('x')`
	query := `SELECT * FROM t0 WHERE c0 = ''`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1 (' ' RTRIM-equals '')", n)
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.RtrimCompare)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 0 {
		t.Fatalf("faulty: %d rows, want 0", n)
	}
}

// Listing 6-like: skip-scan under DISTINCT after ANALYZE.
func TestListing6SkipScan(t *testing.T) {
	setup := `CREATE TABLE t1(c1, c2);
		CREATE INDEX i1 ON t1(c1, c2);
		INSERT INTO t1(c1, c2) VALUES (0, 1), (0, 2), (1, 3);
		ANALYZE t1`
	query := `SELECT DISTINCT * FROM t1`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 3 {
		t.Fatalf("correct: %d rows, want 3", n)
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.SkipScanDistinct)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 2 {
		t.Fatalf("faulty: %d rows, want 2 (repeated leading key skipped)", n)
	}
}

// Listing 7: LIKE optimization and affinity.
func TestListing7LikeAffinity(t *testing.T) {
	setup := `CREATE TABLE t0(c0 INT UNIQUE COLLATE NOCASE);
		INSERT INTO t0(c0) VALUES ('./')`
	query := `SELECT * FROM t0 WHERE t0.c0 LIKE './'`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1", n)
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.LikeAffinityOpt)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 0 {
		t.Fatalf("faulty: %d rows, want 0 (Listing 7)", n)
	}
}

// Listing 8: double-quoted index string hijacks a renamed column.
func TestListing8DoubleQuote(t *testing.T) {
	setup := `CREATE TABLE t0(c1, c2);
		INSERT INTO t0(c1, c2) VALUES ('a', 1);
		CREATE INDEX i0 ON t0("C3");
		ALTER TABLE t0 RENAME COLUMN c1 TO c3`
	query := `SELECT DISTINCT * FROM t0`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	res := mustExec(t, good, query)
	if !res.Rows[0][0].Equal(sqlval.Text("a")) {
		t.Fatalf("correct: first col %v, want 'a'", res.Rows[0][0])
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.DoubleQuoteIndex)))
	mustExec(t, bad, setup)
	res = mustExec(t, bad, query)
	if !res.Rows[0][0].Equal(sqlval.Text("C3")) {
		t.Fatalf("faulty: first col %v, want 'C3' (Listing 8)", res.Rows[0][0])
	}
}

// Listing 9: case_sensitive_like pragma + VACUUM.
func TestListing9CaseSensitiveLike(t *testing.T) {
	setup := `CREATE TABLE test (c0);
		CREATE INDEX index_0 ON test(c0 LIKE '');
		PRAGMA case_sensitive_like = 1`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	mustExec(t, good, `VACUUM`)
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.CaseSensitiveLikePragma)))
	mustExec(t, bad, setup)
	_, err := bad.Exec(`VACUUM`)
	if !xerr.Is(err, xerr.CodeCorrupt) {
		t.Fatalf("faulty VACUUM should report malformed schema, got %v", err)
	}
}

// Listing 10: UPDATE OR REPLACE on a REAL PK corrupts the database.
func TestListing10RealPKCorrupt(t *testing.T) {
	setup := `CREATE TABLE t1 (c0, c1 REAL PRIMARY KEY);
		INSERT INTO t1(c0, c1) VALUES (TRUE, 9223372036854775807), (TRUE, 0);
		UPDATE t1 SET c0 = NULL`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	mustExec(t, good, `UPDATE OR REPLACE t1 SET c1 = 1`)
	if n := rowCount(t, good, `SELECT DISTINCT * FROM t1 WHERE (t1.c0 IS NULL)`); n == 0 {
		t.Fatal("correct engine should fetch rows")
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.RealPKCorrupt)))
	mustExec(t, bad, setup)
	mustExec(t, bad, `UPDATE OR REPLACE t1 SET c1 = 1`)
	_, err := bad.Exec(`SELECT DISTINCT * FROM t1 WHERE (t1.c0 IS NULL)`)
	if !xerr.Is(err, xerr.CodeCorrupt) {
		t.Fatalf("faulty engine should report corruption, got %v", err)
	}
}

// Listing 11: MEMORY engine + CAST AS UNSIGNED.
func TestListing11MemoryEngine(t *testing.T) {
	setup := `CREATE TABLE t0(c0 INT);
		CREATE TABLE t1(c0 INT) ENGINE = MEMORY;
		INSERT INTO t0(c0) VALUES (0);
		INSERT INTO t1(c0) VALUES (-1)`
	query := `SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (IFNULL("u", t0.c0))`
	good := Open(dialect.MySQL)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1", n)
	}
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.MemoryEngineCast)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 0 {
		t.Fatalf("faulty: %d rows, want 0 (Listing 11)", n)
	}
}

// Listing 13: double negation.
func TestListing13DoubleNegation(t *testing.T) {
	setup := `CREATE TABLE t0(c0 INT); INSERT INTO t0(c0) VALUES (1)`
	query := `SELECT * FROM t0 WHERE 123 != (NOT (NOT 123))`
	good := Open(dialect.MySQL)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1", n)
	}
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.DoubleNegation)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 0 {
		t.Fatalf("faulty: %d rows, want 0 (Listing 13)", n)
	}
}

// Listing 14: CHECK TABLE FOR UPGRADE crash.
func TestListing14CheckTableCrash(t *testing.T) {
	setup := `CREATE TABLE t0(c0 INT);
		CREATE INDEX i0 ON t0((t0.c0 + 1));
		INSERT INTO t0(c0) VALUES (1)`
	good := Open(dialect.MySQL)
	mustExec(t, good, setup)
	mustExec(t, good, `CHECK TABLE t0 FOR UPGRADE`)
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.CheckTableCrash)))
	mustExec(t, bad, setup)
	_, err := bad.Exec(`CHECK TABLE t0 FOR UPGRADE`)
	if !xerr.Is(err, xerr.CodeCrash) {
		t.Fatalf("faulty CHECK TABLE should crash, got %v", err)
	}
}

// Listing 15: inheritance + GROUP BY.
func TestListing15Inheritance(t *testing.T) {
	setup := `CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT);
		CREATE TABLE t1(c0 INT) INHERITS (t0);
		INSERT INTO t0(c0, c1) VALUES(0, 0);
		INSERT INTO t1(c0, c1) VALUES(0, 1)`
	query := `SELECT c0, c1 FROM t0 GROUP BY c0, c1`
	good := Open(dialect.Postgres)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 2 {
		t.Fatalf("correct: %d rows, want 2 (0|0 and 0|1)", n)
	}
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.InheritanceGroupBy)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 1 {
		t.Fatalf("faulty: %d rows, want 1 (Listing 15)", n)
	}
}

// Listing 16: extended statistics + expression index.
func TestListing16StatsBitmapset(t *testing.T) {
	setup := `CREATE TABLE t0(c0 serial, c1 boolean);
		CREATE STATISTICS s1 ON c0, c1 FROM t0;
		INSERT INTO t0(c1) VALUES(TRUE);
		ANALYZE;
		CREATE INDEX i0 ON t0(c0, (t0.c1 AND t0.c1))`
	query := `SELECT * FROM t0 WHERE (((t0.c1) AND (t0.c1)) OR FALSE) IS TRUE`
	good := Open(dialect.Postgres)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1", n)
	}
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.StatsBitmapset)))
	mustExec(t, bad, setup)
	_, err := bad.Exec(query)
	if !xerr.Is(err, xerr.CodeInternal) {
		t.Fatalf("faulty: want internal error, got %v", err)
	}
}

// Listing 17: index built before an UPDATE over NULLs.
func TestListing17IndexNullValue(t *testing.T) {
	setup := `CREATE TABLE t0(c0 TEXT);
		INSERT INTO t0(c0) VALUES('b'), ('a');
		ANALYZE;
		INSERT INTO t0(c0) VALUES (NULL);
		CREATE INDEX i0 ON t0(c0);
		UPDATE t0 SET c0 = c0`
	query := `SELECT * FROM t0 WHERE 'baaaa' > t0.c0`
	good := Open(dialect.Postgres)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 2 {
		t.Fatalf("correct: %d rows, want 2", n)
	}
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.IndexNullValue)))
	mustExec(t, bad, setup)
	_, err := bad.Exec(query)
	if !xerr.Is(err, xerr.CodeInternal) {
		t.Fatalf("faulty: want internal error, got %v", err)
	}
}

// Listing 18: VACUUM FULL integer overflow.
func TestListing18VacuumOverflow(t *testing.T) {
	setup := `CREATE TABLE t1(c0 int);
		INSERT INTO t1(c0) VALUES (2147483647);
		UPDATE t1 SET c0 = 0;
		CREATE INDEX i0 ON t1((1 + t1.c0))`
	good := Open(dialect.Postgres)
	mustExec(t, good, setup)
	mustExec(t, good, `VACUUM FULL`)
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.VacuumOverflow)))
	mustExec(t, bad, setup)
	_, err := bad.Exec(`VACUUM FULL`)
	if !xerr.Is(err, xerr.CodeRange) {
		t.Fatalf("faulty VACUUM FULL: want range error, got %v", err)
	}
}

// Listing 3: SET GLOBAL option error.
func TestListing3SetOption(t *testing.T) {
	good := Open(dialect.MySQL)
	mustExec(t, good, `SET GLOBAL key_cache_division_limit = 100`)
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.SetOptionError)))
	_, err := bad.Exec(`SET GLOBAL key_cache_division_limit = 100`)
	if !xerr.Is(err, xerr.CodeOption) {
		t.Fatalf("faulty SET: want option error, got %v", err)
	}
	// Non-multiples of 100 succeed even with the fault.
	mustExec(t, bad, `SET GLOBAL key_cache_division_limit = 42`)
}

func TestConstraints(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0 UNIQUE, c1 NOT NULL)`)
	mustExec(t, e, `INSERT INTO t0(c0, c1) VALUES (1, 1)`)
	if _, err := e.Exec(`INSERT INTO t0(c0, c1) VALUES (1, 2)`); !xerr.Is(err, xerr.CodeUnique) {
		t.Errorf("duplicate unique: %v", err)
	}
	if _, err := e.Exec(`INSERT INTO t0(c0, c1) VALUES (2, NULL)`); !xerr.Is(err, xerr.CodeNotNull) {
		t.Errorf("null into NOT NULL: %v", err)
	}
	// OR IGNORE swallows both.
	mustExec(t, e, `INSERT OR IGNORE INTO t0(c0, c1) VALUES (1, 2), (2, NULL), (3, 3)`)
	if n := rowCount(t, e, `SELECT * FROM t0`); n != 2 {
		t.Errorf("after OR IGNORE: %d rows, want 2", n)
	}
	// OR REPLACE displaces the conflicting row.
	mustExec(t, e, `INSERT OR REPLACE INTO t0(c0, c1) VALUES (1, 9)`)
	res := mustExec(t, e, `SELECT c1 FROM t0 WHERE c0 = 1`)
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(sqlval.Int(9)) {
		t.Errorf("OR REPLACE result: %+v", res.Rows)
	}
	// NULLs don't conflict in UNIQUE columns.
	mustExec(t, e, `CREATE TABLE t1(c0 UNIQUE)`)
	mustExec(t, e, `INSERT INTO t1(c0) VALUES (NULL), (NULL)`)
	if n := rowCount(t, e, `SELECT * FROM t1`); n != 2 {
		t.Errorf("NULL unique: %d rows, want 2", n)
	}
}

func TestCheckConstraint(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0 CHECK (c0 > 0))`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1), (NULL)`) // NULL passes CHECK
	if _, err := e.Exec(`INSERT INTO t0(c0) VALUES (0)`); !xerr.Is(err, xerr.CodeCheck) {
		t.Errorf("check violation: %v", err)
	}
}

func TestAffinityOnInsert(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0 INTEGER, c1 TEXT)`)
	mustExec(t, e, `INSERT INTO t0(c0, c1) VALUES ('42', 42)`)
	res := mustExec(t, e, `SELECT c0, c1 FROM t0`)
	if res.Rows[0][0].Kind() != sqlval.KInt {
		t.Errorf("INTEGER affinity: stored %v", res.Rows[0][0].Kind())
	}
	if res.Rows[0][1].Kind() != sqlval.KText {
		t.Errorf("TEXT affinity: stored %v", res.Rows[0][1].Kind())
	}
}

func TestPostgresStrictInsert(t *testing.T) {
	e := Open(dialect.Postgres)
	mustExec(t, e, `CREATE TABLE t0(c0 INT, c1 boolean)`)
	mustExec(t, e, `INSERT INTO t0(c0, c1) VALUES (1, TRUE)`)
	if _, err := e.Exec(`INSERT INTO t0(c0, c1) VALUES ('abc', TRUE)`); !xerr.Is(err, xerr.CodeType) {
		t.Errorf("text into int should type-error, got %v", err)
	}
	if _, err := e.Exec(`SELECT * FROM t0 WHERE c0`); !xerr.Is(err, xerr.CodeType) {
		t.Errorf("non-boolean WHERE should type-error, got %v", err)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1), (2), (3)`)
	res := mustExec(t, e, `UPDATE t0 SET c0 = c0 + 10 WHERE c0 >= 2`)
	if res.RowsAffected != 2 {
		t.Errorf("update affected %d, want 2", res.RowsAffected)
	}
	if n := rowCount(t, e, `SELECT * FROM t0 WHERE c0 > 10`); n != 2 {
		t.Errorf("after update: %d rows > 10", n)
	}
	res = mustExec(t, e, `DELETE FROM t0 WHERE c0 = 1`)
	if res.RowsAffected != 1 || e.RowCount("t0") != 2 {
		t.Errorf("delete affected %d, count %d", res.RowsAffected, e.RowCount("t0"))
	}
}

func TestJoins(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE a(x); CREATE TABLE b(y);
		INSERT INTO a(x) VALUES (1), (2);
		INSERT INTO b(y) VALUES (2), (3)`)
	if n := rowCount(t, e, `SELECT * FROM a, b`); n != 4 {
		t.Errorf("cross join: %d rows, want 4", n)
	}
	if n := rowCount(t, e, `SELECT * FROM a JOIN b ON a.x = b.y`); n != 1 {
		t.Errorf("inner join: %d rows, want 1", n)
	}
	res := mustExec(t, e, `SELECT * FROM a LEFT JOIN b ON a.x = b.y`)
	if len(res.Rows) != 2 {
		t.Fatalf("left join: %d rows, want 2", len(res.Rows))
	}
	nullSeen := false
	for _, r := range res.Rows {
		if r[1].IsNull() {
			nullSeen = true
		}
	}
	if !nullSeen {
		t.Error("left join should null-extend unmatched row")
	}
}

func TestLeftJoinDropFault(t *testing.T) {
	setup := `CREATE TABLE a(x INT); CREATE TABLE b(y INT);
		INSERT INTO a(x) VALUES (1), (2);
		INSERT INTO b(y) VALUES (2)`
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.LeftJoinDrop)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, `SELECT * FROM a LEFT JOIN b ON a.x = b.y`); n != 1 {
		t.Errorf("faulty left join: %d rows, want 1", n)
	}
}

func TestOrderByLimit(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (3), (1), (2), (NULL)`)
	res := mustExec(t, e, `SELECT c0 FROM t0 ORDER BY c0`)
	if !res.Rows[0][0].IsNull() || !res.Rows[3][0].Equal(sqlval.Int(3)) {
		t.Errorf("order: %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT c0 FROM t0 ORDER BY c0 DESC LIMIT 2`)
	if len(res.Rows) != 2 || !res.Rows[0][0].Equal(sqlval.Int(3)) {
		t.Errorf("desc limit: %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT c0 FROM t0 ORDER BY c0 LIMIT 2 OFFSET 1`)
	if len(res.Rows) != 2 || !res.Rows[0][0].Equal(sqlval.Int(1)) {
		t.Errorf("offset: %v", res.Rows)
	}
}

// TestOrderByKeyResolution pins how an ORDER BY key finds its result
// column in ASTs built in code, which may share nodes: a column holding
// the key's own node, a different node with the same text, and an alias
// ahead of the shared node (the alias wins, as it does in SQL text).
func TestOrderByKeyResolution(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0 INT, c1 INT); INSERT INTO t0(c0, c1) VALUES (2, 20), (1, 30), (3, 10)`)
	ref := sqlast.Col("", "c0")
	for _, tc := range []struct {
		name string
		cols []sqlast.ResultCol
		key  sqlast.Expr
		want []int64 // the c0 result column, in order
	}{
		{"shared node", []sqlast.ResultCol{{X: sqlast.Col("", "c1")}, {X: ref}}, ref, []int64{1, 2, 3}},
		{"same text, other node", []sqlast.ResultCol{{X: sqlast.Col("", "c1")}, {X: ref}}, sqlast.Col("", "c0"), []int64{1, 2, 3}},
		{"alias before shared node", []sqlast.ResultCol{{X: sqlast.Col("", "c1"), Alias: "c0"}, {X: ref}}, ref, []int64{3, 2, 1}},
	} {
		sel := &sqlast.Select{Cols: tc.cols, From: []sqlast.TableRef{{Name: "t0"}}, OrderBy: []sqlast.OrderItem{{X: tc.key}}}
		res, err := e.ExecStmt(sel)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, w := range tc.want {
			if got := res.Rows[i][1]; !got.Equal(sqlval.Int(w)) {
				t.Errorf("%s: row %d c0 = %v, want %d", tc.name, i, got, w)
			}
		}
	}
}

// TestDMLWhereAllocsFlat: an UPDATE or DELETE whose WHERE matches no row
// evaluates the predicate once per row without allocating per row.
func TestDMLWhereAllocsFlat(t *testing.T) {
	allocs := func(rows int, stmt string) float64 {
		e := Open(dialect.SQLite)
		mustExec(t, e, `CREATE TABLE t0(c0 INT, c1 TEXT)`)
		for i := 0; i < rows; i++ {
			mustExec(t, e, fmt.Sprintf(`INSERT INTO t0(c0, c1) VALUES (%d, 'x')`, i))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, stmt := range []string{
		`DELETE FROM t0 WHERE c0 < 0 AND t0.c1 = 'x'`,
		`UPDATE t0 SET c1 = 'y' WHERE c0 < 0 AND t0.c1 = 'x'`,
	} {
		if small, large := allocs(10, stmt), allocs(1000, stmt); small != large {
			t.Errorf("%s: %.1f allocations over 10 rows, %.1f over 1,000", stmt, small, large)
		}
	}
}

// TestKeyedOperatorAllocsFlat: on a warm engine, hash joins (both build
// sides), DISTINCT, GROUP BY and the set operators keep their bucket
// tables in the statement slabs, so a statement allocates as many
// objects over 1,000 rows as over 10.
func TestKeyedOperatorAllocsFlat(t *testing.T) {
	open := func(rows int) *Engine {
		e := Open(dialect.SQLite)
		mustExec(t, e, `CREATE TABLE t0(c0 INT, c1 INT); CREATE TABLE t1(c0 INT)`)
		for i := 0; i < rows; i++ {
			mustExec(t, e, fmt.Sprintf(`INSERT INTO t0(c0, c1) VALUES (%d, %d)`, i, i%7))
			mustExec(t, e, fmt.Sprintf(`INSERT INTO t1(c0) VALUES (%d), (%d)`, i, i))
		}
		return e
	}
	small, large := open(10), open(1000)
	for _, stmt := range []string{
		`SELECT t0.c1, t1.c0 FROM t0 JOIN t1 ON t0.c0 = t1.c0`, // builds on the outer side
		`SELECT t0.c1, t1.c0 FROM t1 JOIN t0 ON t1.c0 = t0.c0`, // builds on the inner side
		`SELECT DISTINCT c1 FROM t0`,
		`SELECT c1, COUNT(*), SUM(c0) FROM t0 GROUP BY c1`,
		`SELECT c1 FROM t0 UNION SELECT c0 FROM t1`,
		`SELECT c0 FROM t1 INTERSECT SELECT c1 FROM t0`,
		`SELECT c0 FROM t1 EXCEPT SELECT c1 FROM t0`,
	} {
		if strings.Contains(stmt, "JOIN") {
			for _, e := range []*Engine{small, large} {
				paths, err := e.PlanSQL(stmt)
				if err != nil || len(paths) != 2 || paths[1].Join != "HASH" {
					t.Fatalf("%s: plan %+v (%v), want a HASH join", stmt, paths, err)
				}
			}
		}
		allocs := func(e *Engine) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := e.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s: %.1f allocations over 10 rows, %.1f over 1,000", stmt, a, b)
		}
	}
}

func TestDistinct(t *testing.T) {
	e := Open(dialect.SQLite)
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.DistinctCollation)))
	naive := Open(dialect.SQLite, WithoutHashAgg())
	for _, x := range []*Engine{e, bad, naive} {
		mustExec(t, x, edgeFixture)
	}
	const clean = `1 | 9007199254740992 | 9007199254740993 | 0.0 | 'a' | x'61' | NULL | 'A'`
	for _, c := range []struct {
		e         *Engine
		sql, want string
	}{
		{e, `SELECT DISTINCT x FROM e`, clean},
		// 121 rows: every result size takes the same path.
		{e, `SELECT DISTINCT e.x FROM e, e AS f`, clean},
		{e, `SELECT DISTINCT x FROM e WHERE x = 'a' OR x = 'A'`, `'a' | 'A'`},
		// generic.distinct-collation: 'A' folds into 'a'; x'61' stays.
		{bad, `SELECT DISTINCT x FROM e`,
			`1 | 9007199254740992 | 9007199254740993 | 0.0 | 'a' | x'61' | NULL`},
		{bad, `SELECT DISTINCT e.x FROM e, e AS f`,
			`1 | 9007199254740992 | 9007199254740993 | 0.0 | 'a' | x'61' | NULL`},
		// GROUP BY groups the same values, in first-occurrence order, on
		// the hash and the materialized path.
		{e, `SELECT x, COUNT(*) FROM e GROUP BY x`,
			`1,2 | 9007199254740992,1 | 9007199254740993,1 | 0.0,2 | 'a',1 | x'61',1 | NULL,2 | 'A',1`},
		{naive, `SELECT x, COUNT(*) FROM e GROUP BY x`,
			`1,2 | 9007199254740992,1 | 9007199254740993,1 | 0.0,2 | 'a',1 | x'61',1 | NULL,2 | 'A',1`},
	} {
		if got := strings.Join(literalRows(t, c.e, c.sql), " | "); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1), (2), (NULL)`)
	res := mustExec(t, e, `SELECT COUNT(), COUNT(c0), SUM(c0), AVG(c0), MIN(c0), MAX(c0) FROM t0`)
	want := []sqlval.Value{sqlval.Int(3), sqlval.Int(2), sqlval.Int(3), sqlval.Real(1.5), sqlval.Int(1), sqlval.Int(2)}
	for i, w := range want {
		if !res.Rows[0][i].Equal(w) {
			t.Errorf("agg %d = %v, want %v", i, res.Rows[0][i], w)
		}
	}
	res = mustExec(t, e, `SELECT c0, COUNT() FROM t0 GROUP BY c0 ORDER BY c0`)
	if len(res.Rows) != 3 {
		t.Errorf("group count: %d groups", len(res.Rows))
	}
}

func TestViews(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1), (2)`)
	mustExec(t, e, `CREATE VIEW v0 AS SELECT c0 FROM t0 WHERE c0 > 1`)
	if n := rowCount(t, e, `SELECT * FROM v0`); n != 1 {
		t.Errorf("view scan: %d rows, want 1", n)
	}
	if got := e.Views(); len(got) != 1 || got[0] != "v0" {
		t.Errorf("Views() = %v", got)
	}
}

func TestAlterAndDrop(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1)`)
	mustExec(t, e, `ALTER TABLE t0 RENAME TO t9`)
	if n := rowCount(t, e, `SELECT * FROM t9`); n != 1 {
		t.Errorf("renamed table scan: %d rows", n)
	}
	mustExec(t, e, `ALTER TABLE t9 ADD COLUMN c1 DEFAULT (7)`)
	res := mustExec(t, e, `SELECT c1 FROM t9`)
	if !res.Rows[0][0].Equal(sqlval.Int(7)) {
		t.Errorf("added column default: %v", res.Rows[0][0])
	}
	mustExec(t, e, `DROP TABLE t9`)
	if _, err := e.Exec(`SELECT * FROM t9`); !xerr.Is(err, xerr.CodeNoObject) {
		t.Errorf("dropped table: %v", err)
	}
}

func TestIndexMaintenanceThroughDML(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0);
		CREATE INDEX i0 ON t0(c0);
		INSERT INTO t0(c0) VALUES (1), (2), (3)`)
	// Equality lookup must agree with a full scan after updates/deletes.
	mustExec(t, e, `UPDATE t0 SET c0 = 9 WHERE c0 = 2`)
	mustExec(t, e, `DELETE FROM t0 WHERE c0 = 3`)
	if n := rowCount(t, e, `SELECT * FROM t0 WHERE c0 = 9`); n != 1 {
		t.Errorf("index lookup after update: %d rows, want 1", n)
	}
	if n := rowCount(t, e, `SELECT * FROM t0 WHERE c0 = 3`); n != 0 {
		t.Errorf("index lookup after delete: %d rows, want 0", n)
	}
	mustExec(t, e, `REINDEX t0`)
	if n := rowCount(t, e, `SELECT * FROM t0 WHERE c0 = 9`); n != 1 {
		t.Errorf("after REINDEX: %d rows, want 1", n)
	}
}

func TestUniqueIndexEnforcement(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0);
		CREATE UNIQUE INDEX u0 ON t0(c0 COLLATE NOCASE);
		INSERT INTO t0(c0) VALUES ('a')`)
	if _, err := e.Exec(`INSERT INTO t0(c0) VALUES ('A')`); !xerr.Is(err, xerr.CodeUnique) {
		t.Errorf("NOCASE unique index should reject case variant: %v", err)
	}
}

func TestReindexUniqueFault(t *testing.T) {
	setup := `CREATE TABLE t0(c0);
		CREATE UNIQUE INDEX u0 ON t0(c0 COLLATE NOCASE);
		INSERT INTO t0(c0) VALUES ('a'), ('b')`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	mustExec(t, good, `REINDEX`)
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.ReindexUnique)))
	mustExec(t, bad, setup)
	if _, err := bad.Exec(`REINDEX`); !xerr.Is(err, xerr.CodeUnique) {
		t.Errorf("faulty REINDEX: %v", err)
	}
}

func TestVacuumCorruptFault(t *testing.T) {
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.VacuumCorrupt)))
	mustExec(t, bad, `CREATE TABLE t0(c0)`)
	if _, err := bad.Exec(`VACUUM`); !xerr.Is(err, xerr.CodeCorrupt) {
		t.Errorf("faulty VACUUM: %v", err)
	}
	// Corruption persists.
	if _, err := bad.Exec(`SELECT 1`); !xerr.Is(err, xerr.CodeCorrupt) {
		t.Errorf("post-corruption statement: %v", err)
	}
}

func TestInsertVisibilityFault(t *testing.T) {
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.InsertVisibility)))
	mustExec(t, bad, `CREATE TABLE t0(c0 INT); INSERT INTO t0(c0) VALUES (1), (2)`)
	if n := rowCount(t, bad, `SELECT * FROM t0`); n != 1 {
		t.Errorf("visibility fault: %d rows, want 1 (last insert hidden)", n)
	}
}

func TestRowidAliasCrashFault(t *testing.T) {
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.RowidAliasCrash)))
	mustExec(t, bad, `CREATE TABLE t0(c0, c1); INSERT INTO t0(c0, c1) VALUES (1, 2)`)
	mustExec(t, bad, `ALTER TABLE t0 RENAME COLUMN c0 TO c9`)
	_, err := bad.Exec(`SELECT * FROM t0`)
	if !xerr.Is(err, xerr.CodeCrash) {
		t.Errorf("crash fault: %v", err)
	}
}

func TestStrictCastCrashFault(t *testing.T) {
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.StrictCastCrash)))
	mustExec(t, bad, `CREATE TABLE t0(c0 INT)`)
	_, err := bad.Exec(`CREATE INDEX i0 ON t0((CAST(c0 AS TEXT) || 'x'))`)
	if !xerr.Is(err, xerr.CodeCrash) {
		t.Errorf("nested-cast index should crash: %v", err)
	}
}

func TestRepairTableTruncateFault(t *testing.T) {
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.RepairTableTruncate)))
	mustExec(t, bad, `CREATE TABLE t0(c0 INT); INSERT INTO t0(c0) VALUES (1), (2)`)
	if _, err := bad.Exec(`REPAIR TABLE t0`); !xerr.Is(err, xerr.CodeCorrupt) {
		t.Errorf("faulty REPAIR: %v", err)
	}
}

func TestWhereTrueDropFault(t *testing.T) {
	setup := `CREATE TABLE t0(c0);
		CREATE INDEX i0 ON t0(c0);
		INSERT INTO t0(c0) VALUES (1), (2), (3)`
	query := `SELECT * FROM t0 WHERE (c0 > 0) OR (c0 IS NULL)`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 3 {
		t.Fatalf("correct: %d rows, want 3", n)
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.WhereTrueDrop)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 2 {
		t.Fatalf("faulty: %d rows, want 2", n)
	}
}

func TestJoinPushdownFault(t *testing.T) {
	setup := `CREATE TABLE a(x INT); CREATE TABLE b(y INT);
		INSERT INTO a(x) VALUES (1), (2);
		INSERT INTO b(y) VALUES (5), (6)`
	query := `SELECT * FROM a, b WHERE b.y > 4`
	good := Open(dialect.MySQL)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 4 {
		t.Fatalf("correct: %d rows, want 4", n)
	}
	bad := Open(dialect.MySQL, WithFaults(faults.NewSet(faults.JoinPredicatePushdown)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 2 {
		t.Fatalf("faulty: %d rows, want 2", n)
	}
}

func TestOrderByLimitDropFault(t *testing.T) {
	setup := `CREATE TABLE t0(c0 INT);
		INSERT INTO t0(c0) VALUES (1), (2), (3)`
	bad := Open(dialect.Postgres, WithFaults(faults.NewSet(faults.OrderByLimitDrop)))
	mustExec(t, bad, setup)
	mustExec(t, bad, `INSERT INTO t0(c0) VALUES (NULL)`)
	res := mustExec(t, bad, `SELECT c0 FROM t0 ORDER BY c0 LIMIT 10`)
	if len(res.Rows) != 3 {
		t.Errorf("faulty order/limit: %d rows, want 3 (one dropped)", len(res.Rows))
	}
}

func TestCollateIndexOrderFault(t *testing.T) {
	setup := `CREATE TABLE t0(c0 TEXT COLLATE NOCASE);
		CREATE INDEX i0 ON t0(c0);
		INSERT INTO t0(c0) VALUES ('a'), ('B')`
	query := `SELECT * FROM t0 WHERE c0 = 'A'`
	good := Open(dialect.SQLite)
	mustExec(t, good, setup)
	if n := rowCount(t, good, query); n != 1 {
		t.Fatalf("correct: %d rows, want 1", n)
	}
	bad := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.CollateIndexOrder)))
	mustExec(t, bad, setup)
	if n := rowCount(t, bad, query); n != 0 {
		t.Fatalf("faulty: %d rows, want 0 (binary-built index misses)", n)
	}
}

func TestIntrospection(t *testing.T) {
	e := Open(dialect.MySQL)
	mustExec(t, e, `CREATE TABLE t0(c0 INT UNSIGNED, c1 TEXT) ENGINE = MEMORY`)
	mustExec(t, e, `CREATE INDEX i0 ON t0(c0)`)
	info, err := e.Describe("t0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Engine != "MEMORY" || len(info.Columns) != 2 || !info.Columns[0].Unsigned {
		t.Errorf("describe: %+v", info)
	}
	if got := e.Indexes("t0"); len(got) != 1 || got[0] != "i0" {
		t.Errorf("indexes: %v", got)
	}
	if got := e.Tables(); len(got) != 1 {
		t.Errorf("tables: %v", got)
	}
}

func TestCoverageCounting(t *testing.T) {
	e := Open(dialect.SQLite)
	before := e.Coverage().Features()
	mustExec(t, e, `CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1); SELECT DISTINCT * FROM t0 ORDER BY c0 LIMIT 1`)
	if e.Coverage().Features() <= before {
		t.Error("coverage should grow with new features")
	}
}

func TestZeroFaultsNoFalseAlarms(t *testing.T) {
	// The full Listing-1 style workload on a correct engine returns
	// complete results for every dialect.
	for _, d := range dialect.All {
		e := Open(d)
		mustExec(t, e, `CREATE TABLE t0(c0 INT)`)
		mustExec(t, e, `INSERT INTO t0(c0) VALUES (0), (1), (NULL)`)
		if n := rowCount(t, e, `SELECT * FROM t0`); n != 3 {
			t.Errorf("[%s] %d rows, want 3", d, n)
		}
	}
}

package engine

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlparse"
)

// twoEngines opens a compiled-default engine and a tree-walk baseline and
// applies the same setup script to both.
func twoEngines(t *testing.T, d dialect.Dialect, setup []string) (compiled, interpreted *Engine) {
	t.Helper()
	compiled = Open(d)
	interpreted = Open(d, WithoutCompiledEval())
	for _, e := range []*Engine{compiled, interpreted} {
		for _, s := range setup {
			if _, err := e.Exec(s); err != nil {
				t.Fatalf("setup %q: %v", s, err)
			}
		}
	}
	return compiled, interpreted
}

// TestAmbiguousColumnDistinctError is the regression test for the
// joinedEnv.find conflation bug: an unqualified column matching two FROM
// sources must report "ambiguous column name", not "no such column" — in
// the compiled path (bind time) and the tree-walk fallback (lookup time).
func TestAmbiguousColumnDistinctError(t *testing.T) {
	setup := []string{
		"CREATE TABLE a(x INT, only_a INT)",
		"CREATE TABLE b(x INT)",
		"INSERT INTO a VALUES (1, 10)",
		"INSERT INTO b VALUES (2)",
	}
	compiled, interpreted := twoEngines(t, dialect.SQLite, setup)
	for name, e := range map[string]*Engine{"compiled": compiled, "interpreted": interpreted} {
		_, err := e.Exec("SELECT x FROM a, b")
		if err == nil || !strings.Contains(err.Error(), "ambiguous column name: x") {
			t.Errorf("%s: ambiguous select err = %v, want ambiguous column name", name, err)
		}
		_, err = e.Exec("SELECT nope FROM a, b")
		if err == nil || !strings.Contains(err.Error(), "no such column") ||
			strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("%s: missing select err = %v, want no such column", name, err)
		}
		// A qualified reference to the shared name stays unambiguous.
		res, err := e.Exec("SELECT a.x FROM a, b")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != 1 {
			t.Errorf("%s: qualified select = %v, %v", name, res, err)
		}
		// Unique unqualified names keep resolving.
		res, err = e.Exec("SELECT only_a FROM a, b")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != 10 {
			t.Errorf("%s: unique unqualified select = %v, %v", name, res, err)
		}
	}
}

// TestProgramCacheInvalidation re-executes the same statement AST across a
// schema change: slot bindings must not survive DDL. Every execution
// compiles its clauses fresh, so nothing may carry the old slots over.
func TestProgramCacheInvalidation(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec := func(s string) {
		t.Helper()
		if _, err := e.Exec(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	mustExec("CREATE TABLE t(a INT, b INT)")
	mustExec("INSERT INTO t VALUES (1, 2)")
	sel, err := sqlparse.ParseOne("SELECT a FROM t WHERE b = 2", dialect.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the same AST runs twice before the DDL
		res, err := e.ExecStmt(sel)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != 1 {
			t.Fatalf("run %d: %v, %v", i, res, err)
		}
	}
	// Recreate the table with the column order swapped. Stale slots would
	// read a where b lives now.
	mustExec("DROP TABLE t")
	mustExec("CREATE TABLE t(b INT, a INT)")
	mustExec("INSERT INTO t VALUES (2, 99)")
	res, err := e.ExecStmt(sel)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != 99 {
		t.Fatalf("after DDL: rows=%v err=%v, want [99]", res, err)
	}
}

// TestCompiledMatchesInterpretedQueries runs a battery of tricky SELECT
// shapes — joins with NULL extension, grouping, HAVING, aggregates over
// expressions, views, CASE, collations — on a compiled engine and a
// tree-walk engine and requires identical results or identical errors.
func TestCompiledMatchesInterpretedQueries(t *testing.T) {
	setup := []string{
		"CREATE TABLE t0(c0 INT, c1 TEXT COLLATE NOCASE, c2 REAL)",
		"CREATE TABLE t1(k INT, v TEXT)",
		"INSERT INTO t0 VALUES (1, 'a', 0.5), (2, 'B', NULL), (NULL, 'abc', 2.5), (2, 'b', 1.0)",
		"INSERT INTO t1 VALUES (1, 'x'), (3, NULL)",
		"CREATE VIEW w AS SELECT c0, c1 FROM t0 WHERE c0 IS NOT NULL",
	}
	queries := []string{
		"SELECT * FROM t0 WHERE c0 = 2",
		"SELECT c0 + c2, c1 || 'z' FROM t0 WHERE c1 = 'B'",
		"SELECT t0.c0, t1.v FROM t0 LEFT JOIN t1 ON t0.c0 = t1.k",
		"SELECT c0, COUNT(*), SUM(c2) FROM t0 GROUP BY c0",
		"SELECT c1, MAX(c0) FROM t0 GROUP BY c1 HAVING MAX(c0) > 1",
		"SELECT CASE WHEN c0 IS NULL THEN 'n' ELSE c1 END FROM t0",
		"SELECT DISTINCT c1 FROM t0",
		"SELECT * FROM w WHERE c1 LIKE 'A%'",
		"SELECT c0 FROM t0 WHERE c0 BETWEEN 1 AND 2 ORDER BY c0",
		"SELECT c0 FROM t0 WHERE c0 IN (2, NULL, 5)",
		"SELECT c0 FROM t0 WHERE c1 = 'A' COLLATE BINARY",
		"SELECT ABS(c0 - 3) FROM t0 WHERE c0 NOT NULL",
		"SELECT COUNT(c2 * 2) FROM t0",
		"SELECT 1 + 2 * 3",
		"SELECT t0.c0 FROM t0, t1 WHERE t0.c0 = t1.k",
	}
	for _, d := range dialect.All {
		if d != dialect.SQLite {
			continue // the setup script is SQLite-flavoured; other dialects run via the campaign suites
		}
		compiled, interpreted := twoEngines(t, d, setup)
		for _, q := range queries {
			cr, cerr := compiled.Exec(q)
			ir, ierr := interpreted.Exec(q)
			if (cerr == nil) != (ierr == nil) {
				t.Fatalf("%q: compiled err=%v interpreted err=%v", q, cerr, ierr)
			}
			if cerr != nil {
				if cerr.Error() != ierr.Error() {
					t.Fatalf("%q: error text diverged: %q vs %q", q, cerr, ierr)
				}
				continue
			}
			if len(cr.Rows) != len(ir.Rows) {
				t.Fatalf("%q: %d rows compiled vs %d interpreted", q, len(cr.Rows), len(ir.Rows))
			}
			for i := range cr.Rows {
				for j := range cr.Rows[i] {
					a, b := cr.Rows[i][j], ir.Rows[i][j]
					if a.Kind() != b.Kind() || a.String() != b.String() {
						t.Fatalf("%q: row %d col %d: %s vs %s", q, i, j, a, b)
					}
				}
			}
		}
	}
}

package engine

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlparse"
)

// TestAmbiguousColumnDistinctError is the regression test for a
// resolution bug that conflated the two misses: an unqualified column
// matching two FROM sources must report "ambiguous column name", not "no such column". The
// compiled-off engine returns the same text (TestAblationDifferential's
// compiled row runs these queries with each feature off).
func TestAmbiguousColumnDistinctError(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e, compiledSetup...)
	for q, want := range map[string]string{
		"SELECT x FROM a, b":    "error: ambiguous column name: x",
		"SELECT nope FROM a, b": "error: no such column: nope",
		// A qualified reference to the shared name stays unambiguous, and
		// unique unqualified names keep resolving.
		"SELECT a.x FROM a, b":    "x\n1\n",
		"SELECT only_a FROM a, b": "only_a\n10\n",
	} {
		if got := runQuery(e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
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

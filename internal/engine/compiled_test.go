package engine

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/eval"
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

// TestNestedProgramLifetimes runs statements whose nested SELECTs compile
// and release programs in the code buffer the enclosing statement
// compiles into: outer filters over a view that filters, a view over that
// view, and compound arms that each filter. Each nested SELECT releases
// the buffer to its own mark; a release reaching below it would clobber
// the programs of the statement around it. Results must match the tree
// walk's, and every statement must leave the buffer empty.
func TestNestedProgramLifetimes(t *testing.T) {
	setup := append(slices.Clone(compiledSetup),
		"CREATE VIEW w2 AS SELECT c0, c1 FROM w WHERE c1 LIKE '%b%' OR c0 BETWEEN 1 AND 1")
	on, off := Open(dialect.SQLite), Open(dialect.SQLite, WithoutCompiledEval())
	execAll(t, on, setup...)
	execAll(t, off, setup...)
	for _, q := range []string{
		"SELECT c0, c1 FROM w WHERE c0 + 1 > 2 AND c1 IN ('b', 'z')",
		"SELECT w.c0, t1.v FROM t1 JOIN w ON w.c0 = t1.k WHERE CASE w.c1 WHEN 'a' THEN 1 ELSE 0 END = 1",
		"SELECT w2.c1, COUNT(*) FROM w2, t1 WHERE ABS(w2.c0 - t1.k) < 3 GROUP BY w2.c1 HAVING w2.c1 <> 'q'",
		"SELECT c0 FROM w WHERE c0 > 1 UNION SELECT k FROM t1 WHERE k < 3 EXCEPT SELECT c0 FROM w2 WHERE c1 = 'zz'",
		"SELECT c1 FROM w2 WHERE c0 = 2 UNION ALL SELECT v FROM t1 WHERE v IS NOT NULL",
	} {
		got, want := runQuery(on, q), runQuery(off, q)
		if got != want {
			t.Errorf("%s:\ncompiled  %q\ntree walk %q", q, got, want)
		}
		if strings.HasPrefix(got, "error") || strings.Count(got, "\n") < 2 {
			t.Errorf("%s: %q, want rows", q, got)
		}
		if mk := on.mem.code.Mark(); mk != (eval.CodeMark{}) {
			t.Errorf("%s left %+v in the code buffer", q, mk)
		}
	}
}

package engine

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

func compoundFixture(t *testing.T) *Engine {
	t.Helper()
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE a(x); CREATE TABLE b(x);
		INSERT INTO a(x) VALUES (1), (2), (2), (NULL);
		INSERT INTO b(x) VALUES (2), (3), (NULL)`)
	return e
}

// literalRows runs sql and renders each result row as comma-joined
// literals, so a test can assert exact rows in order.
func literalRows(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	var out []string
	for _, row := range mustExec(t, e, sql).Rows {
		lits := make([]string, len(row))
		for i, v := range row {
			lits[i] = v.Literal()
		}
		out = append(out, strings.Join(lits, ","))
	}
	return out
}

// edgeFixture holds the values a set operator's key normalization must
// not confuse: 1 and 1.0 are equal, 2^53 and 2^53+1 share a float key but
// differ, 0.0 and -0.0 are equal, text 'a' and blob x'61' differ, NULLs
// are equal, and 'a'/'A' differ under BINARY.
const edgeFixture = `CREATE TABLE e(x);
	INSERT INTO e(x) VALUES (1), (1.0), (9007199254740992), (9007199254740993),
		(0.0), (-0.0), ('a'), (x'61'), (NULL), (NULL), ('A')`

// compoundCases asserts exact compound results, rows in order.
func compoundCases(t *testing.T, cases []struct{ sql, want string }) {
	t.Helper()
	e := compoundFixture(t)
	mustExec(t, e, edgeFixture)
	for _, c := range cases {
		if got := strings.Join(literalRows(t, e, c.sql), " | "); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
}

func TestUnion(t *testing.T) {
	compoundCases(t, []struct{ sql, want string }{
		{`SELECT x FROM a UNION SELECT x FROM b`, `1 | 2 | NULL | 3`},
		{`SELECT x FROM a UNION ALL SELECT x FROM b`, `1 | 2 | 2 | NULL | 2 | 3 | NULL`},
		{`SELECT 1 UNION SELECT 1.0`, `1`},
		{`SELECT 1.0 UNION SELECT 1`, `1.0`},
		{`SELECT 9007199254740992 UNION SELECT 9007199254740993`, `9007199254740992 | 9007199254740993`},
		{`SELECT 0.0 UNION SELECT -0.0`, `0.0`},
		{`SELECT -0.0 UNION SELECT 0.0`, `-0.0`},
		{`SELECT 'a' UNION SELECT x'61'`, `'a' | x'61'`},
		{`SELECT NULL UNION SELECT NULL`, `NULL`},
		{`SELECT 'a' UNION SELECT 'A'`, `'a' | 'A'`},
		{`SELECT x FROM e UNION SELECT x FROM a`,
			`1 | 9007199254740992 | 9007199254740993 | 0.0 | 'a' | x'61' | NULL | 'A' | 2`},
	})
}

func TestIntersectAndExcept(t *testing.T) {
	compoundCases(t, []struct{ sql, want string }{
		// NULLs compare equal in set ops.
		{`SELECT x FROM a INTERSECT SELECT x FROM b`, `2 | NULL`},
		{`SELECT x FROM a EXCEPT SELECT x FROM b`, `1`},
		{`SELECT 1 INTERSECT SELECT 1.0`, `1`},
		{`SELECT 1.0 EXCEPT SELECT 1`, ``},
		{`SELECT 9007199254740992 INTERSECT SELECT 9007199254740993`, ``},
		{`SELECT 9007199254740993 EXCEPT SELECT 9007199254740992`, `9007199254740993`},
		{`SELECT -0.0 INTERSECT SELECT 0.0`, `-0.0`},
		{`SELECT 0.0 EXCEPT SELECT -0.0`, ``},
		{`SELECT 'a' INTERSECT SELECT x'61'`, ``},
		{`SELECT x'61' EXCEPT SELECT 'a'`, `x'61'`},
		{`SELECT NULL INTERSECT SELECT NULL`, `NULL`},
		{`SELECT 'a' INTERSECT SELECT 'A'`, ``},
		{`SELECT x FROM e INTERSECT SELECT x FROM a`, `1 | NULL`},
		{`SELECT x FROM e EXCEPT SELECT x FROM a`,
			`9007199254740992 | 9007199254740993 | 0.0 | 'a' | x'61' | 'A'`},
	})
}

func TestCompoundChain(t *testing.T) {
	e := compoundFixture(t)
	// Left-associative: (a EXCEPT b) UNION (SELECT 9) = {1, 9}.
	if n := rowCount(t, e, `SELECT x FROM a EXCEPT SELECT x FROM b UNION SELECT 9`); n != 2 {
		t.Errorf("chain: %d rows, want 2", n)
	}
}

// The paper's step 6+7 containment idiom: a literal SELECT intersected
// with the pivot query returns a row iff the pivot is contained.
func TestIntersectContainmentIdiom(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0, c1);
		INSERT INTO t0(c0, c1) VALUES (3, -5), (2, 0)`)
	if n := rowCount(t, e, `SELECT 3, -5 INTERSECT SELECT c0, c1 FROM t0`); n != 1 {
		t.Errorf("contained pivot: %d rows, want 1", n)
	}
	if n := rowCount(t, e, `SELECT 7, 7 INTERSECT SELECT c0, c1 FROM t0`); n != 0 {
		t.Errorf("absent pivot: %d rows, want 0", n)
	}
	// NULL pivots intersect too.
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (9)`)
	if n := rowCount(t, e, `SELECT 9, NULL INTERSECT SELECT c0, c1 FROM t0`); n != 1 {
		t.Errorf("NULL pivot: %d rows, want 1", n)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := Open(dialect.SQLite)
	res := mustExec(t, e, `SELECT 1, 'a'`)
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(sqlval.Int(1)) {
		t.Errorf("constant select: %v", res.Rows)
	}
	// Listing 2's shape runs through the engine now.
	res = mustExec(t, e, `SELECT '' - 2851427734582196970`)
	if !res.Rows[0][0].Equal(sqlval.Int(-2851427734582196970)) {
		t.Errorf("Listing 2 via engine: %v", res.Rows[0][0])
	}
}

func TestCompoundColumnMismatch(t *testing.T) {
	e := compoundFixture(t)
	_, err := e.Exec(`SELECT x FROM a UNION SELECT x, x FROM b`)
	if !xerr.Is(err, xerr.CodeSyntax) {
		t.Errorf("column count mismatch: %v", err)
	}
}

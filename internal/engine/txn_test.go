package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlparse"
	"repro/internal/xerr"
)

func TestTxnSanity(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec := func(c *Conn, sql string) *Result {
		r, err := c.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	c1, c2 := e.NewConn(), e.NewConn()
	mustExec(c1, "CREATE TABLE t (a INTEGER)")
	mustExec(c1, "INSERT INTO t VALUES (1)")
	mustExec(c1, "BEGIN")
	mustExec(c1, "INSERT INTO t VALUES (2)")
	// c2 must not see the staged row
	r := mustExec(c2, "SELECT * FROM t")
	if len(r.Rows) != 1 {
		t.Fatalf("c2 sees %d rows, want 1", len(r.Rows))
	}
	// c1 sees its own write
	r = mustExec(c1, "SELECT * FROM t")
	if len(r.Rows) != 2 {
		t.Fatalf("c1 sees %d rows, want 2", len(r.Rows))
	}
	// c2 writing t gets busy
	if _, err := c2.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("INSERT INTO t VALUES (3)"); !xerr.Is(err, xerr.CodeBusy) {
		t.Fatalf("want busy, got %v", err)
	}
	mustExec(c2, "ROLLBACK")
	mustExec(c1, "COMMIT")
	r = mustExec(c2, "SELECT * FROM t")
	if len(r.Rows) != 2 {
		t.Fatalf("after commit c2 sees %d rows, want 2", len(r.Rows))
	}
	// rollback restores
	mustExec(c1, "BEGIN")
	mustExec(c1, "DELETE FROM t")
	mustExec(c1, "ROLLBACK")
	r = mustExec(c1, "SELECT * FROM t")
	if len(r.Rows) != 2 {
		t.Fatalf("after rollback %d rows, want 2", len(r.Rows))
	}
	// nested begin
	mustExec(c1, "BEGIN")
	if _, err := c1.Exec("BEGIN"); !xerr.Is(err, xerr.CodeTxnState) {
		t.Fatalf("nested begin: %v", err)
	}
	mustExec(c1, "COMMIT")
	if _, err := c1.Exec("COMMIT"); !xerr.Is(err, xerr.CodeTxnState) {
		t.Fatalf("commit outside txn: %v", err)
	}
	// first-committer-wins on read-write conflict
	mustExec(c1, "BEGIN")
	mustExec(c2, "BEGIN")
	mustExec(c1, "SELECT * FROM t")
	mustExec(c1, "INSERT INTO t VALUES (10)")
	mustExec(c2, "SELECT * FROM t")
	mustExec(c1, "COMMIT")
	if _, err := c2.Exec("INSERT INTO t VALUES (11)"); !xerr.Is(err, xerr.CodeBusy) {
		// c1 committed, lock released: insert proceeds
		if err != nil {
			t.Fatalf("c2 insert: %v", err)
		}
	}
	if _, err := c2.Exec("COMMIT"); !xerr.Is(err, xerr.CodeConflict) {
		t.Fatalf("c2 commit should conflict, got %v", err)
	}
	// lost-update fault: both commit
	ef := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.TxnLostUpdate)))
	f1, f2 := ef.NewConn(), ef.NewConn()
	mustExec(f1, "CREATE TABLE t (a INTEGER)")
	mustExec(f1, "BEGIN")
	mustExec(f2, "BEGIN")
	mustExec(f1, "INSERT INTO t VALUES (1)")
	mustExec(f2, "INSERT INTO t VALUES (2)")
	mustExec(f1, "COMMIT")
	mustExec(f2, "COMMIT")
	r = mustExec(f1, "SELECT * FROM t")
	if len(r.Rows) != 1 {
		t.Fatalf("lost-update fault: want 1 surviving row (clobber), got %d", len(r.Rows))
	}
}

// TestTxnReadsInheritanceChildren replays a postgres history the
// serializability oracle once flagged: S0 reads the parent t0, whose scan
// includes the child t2, while S1 auto-commits a row into t2. S0's read
// missed that row, so its COMMIT must fail validation; committing it
// would leave a history no serial order reproduces.
func TestTxnReadsInheritanceChildren(t *testing.T) {
	e := Open(dialect.Postgres)
	s0, s1 := e.NewConn(), e.NewConn()
	for _, step := range []struct {
		c   *Conn
		sql string
	}{
		{s0, "CREATE TABLE t0(c0 serial)"},
		{s0, "INSERT INTO t0(c0) VALUES (-2851427734582196970)"},
		{s0, "CREATE TABLE t2(c0 INT UNIQUE, c1 BOOLEAN) INHERITS (t0)"},
		{s0, "BEGIN"},
		{s1, "INSERT INTO t2(c1) VALUES (TRUE)"},
		{s1, "SELECT * FROM t0"},
		{s0, "SELECT * FROM t0"},
		{s0, "UPDATE t0 SET c0 = 2147483647"},
	} {
		if _, err := step.c.Exec(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
	if _, err := s0.Exec("COMMIT"); !xerr.Is(err, xerr.CodeConflict) {
		t.Fatalf("COMMIT after a concurrent write to an inheriting child: got %v, want a conflict", err)
	}
}

// TestConflictWitnessIsSmallestTable: when a concurrent commit wrote
// several tables this transaction read, the conflict names the smallest,
// whatever order the read and write sets iterate in. Each history runs on
// a fresh engine, so a witness picked by map order differs between runs.
func TestConflictWitnessIsSmallestTable(t *testing.T) {
	const want = "concurrent commit wrote table t0 read by this transaction"
	for run := 0; run < 50; run++ {
		e := Open(dialect.SQLite)
		a, b := e.NewConn(), e.NewConn()
		exec := func(c *Conn, sql string) {
			if _, err := c.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		for i := 0; i < 5; i++ {
			exec(a, fmt.Sprintf("CREATE TABLE t%d (c0 INTEGER)", i))
		}
		exec(b, "BEGIN")
		for i := 0; i < 4; i++ {
			exec(b, fmt.Sprintf("SELECT * FROM t%d", i))
		}
		exec(a, "BEGIN")
		for i := 0; i < 4; i++ {
			exec(a, fmt.Sprintf("INSERT INTO t%d VALUES (1)", i))
		}
		exec(a, "COMMIT")
		exec(b, "INSERT INTO t4 VALUES (1)")
		_, err := b.Exec("COMMIT")
		if !xerr.Is(err, xerr.CodeConflict) || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: COMMIT = %v, want a conflict %q", run, err, want)
		}
	}
}

// TestSessionSwitchAllocs pins the cost of switching the installed
// session: two sessions with open transactions alternating a read-only
// SELECT, minus the same two SELECTs on one session. Tables and indexes
// that did not change share their snapshots, and the engine Snapshot that
// parks a session's state is recycled once reinstalled, so a switch
// allocates nothing, whatever the table count (8 allocations per two
// switches before the recycling).
func TestSessionSwitchAllocs(t *testing.T) {
	e := Open(dialect.SQLite)
	c0, c1 := e.NewConn(), e.NewConn()
	for _, sql := range []string{
		"CREATE TABLE t0(c0 INT, c1 TEXT)",
		"CREATE TABLE t1(c0 INT)",
		"CREATE TABLE t2(c0 INT)",
		"CREATE INDEX i0 ON t0(c0)",
		"CREATE INDEX i1 ON t1(c0)",
		"INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (3, 'c')",
		"INSERT INTO t1 VALUES (1), (2)",
		"INSERT INTO t2 VALUES (7)",
	} {
		if _, err := c0.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, c := range []*Conn{c0, c1} {
		if _, err := c.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sqlparse.Parse("SELECT * FROM t0 WHERE c0 = 2", dialect.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(c *Conn) {
		if _, err := c.ExecStmt(sel[0]); err != nil {
			t.Fatal(err)
		}
	}
	same := testing.AllocsPerRun(100, func() { exec(c0); exec(c0) })
	alternating := testing.AllocsPerRun(100, func() { exec(c0); exec(c1) })
	if perTwo := alternating - same; perTwo > 0 {
		t.Errorf("two session switches allocate %.1f times (want 0)", perTwo)
	}
}

// TestClosedConnReopensClean holds session recycling: Close rolls back the
// open transaction and parks the session, and the next NewConn hands the
// same session out again with no transaction, no staged rows and no
// allocation.
func TestClosedConnReopensClean(t *testing.T) {
	e := Open(dialect.SQLite)
	c := e.NewConn()
	for _, sql := range []string{"CREATE TABLE t0(c0 INT)", "BEGIN", "INSERT INTO t0 VALUES (1)"} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	again := e.NewConn()
	if again != c {
		t.Fatal("NewConn did not reuse the closed session")
	}
	if again.InTxn() {
		t.Fatal("reused session is still in a transaction")
	}
	res, err := again.Exec("SELECT * FROM t0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("closed session's staged row survived: %d rows", len(res.Rows))
	}
	if allocs := testing.AllocsPerRun(100, func() { e.NewConn().Close() }); allocs > 0 {
		t.Errorf("open and close allocate %.1f times (want 0)", allocs)
	}
}

package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
)

// queryRows runs a SELECT and renders its rows for comparison.
func queryRows(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = fmt.Sprint(row)
	}
	return out
}

var lifecycleScript = []string{
	"CREATE TABLE t0(c0 INT PRIMARY KEY, c1 TEXT COLLATE NOCASE)",
	"CREATE INDEX i0 ON t0(c1)",
	"INSERT INTO t0 VALUES (1, 'a'), (2, 'B'), (3, NULL)",
	"UPDATE t0 SET c1 = 'z' WHERE c0 = 2",
	"DELETE FROM t0 WHERE c0 = 3",
	"PRAGMA case_sensitive_like = 1",
}

const lifecycleQuery = "SELECT c0, c1 FROM t0 WHERE c1 >= 'a' ORDER BY c0"

// TestResetMatchesFreshEngine is the load-bearing property behind pooled
// engine lifecycles: an engine that ran arbitrary prior work and was Reset
// must behave byte-identically to a freshly opened one.
func TestResetMatchesFreshEngine(t *testing.T) {
	for _, d := range dialect.All {
		t.Run(d.String(), func(t *testing.T) {
			script := lifecycleScript
			if d != dialect.SQLite {
				script = script[:len(script)-1] // PRAGMA is SQLite-only
			}
			fresh := Open(d)
			execAll(t, fresh, script...)

			reused := Open(d)
			// Dirty the engine thoroughly before resetting: schema, rows,
			// options, even a simulated corruption.
			execAll(t, reused,
				"CREATE TABLE junk(a INT, b TEXT)",
				"CREATE INDEX junkix ON junk(a)",
				"INSERT INTO junk VALUES (9, 'x')",
				"DROP INDEX junkix",
			)
			reused.corrupt = "database disk image is malformed"
			reused.Reset()
			execAll(t, reused, script...)

			want := queryRows(t, fresh, lifecycleQuery)
			got := queryRows(t, reused, lifecycleQuery)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset engine diverged:\nfresh: %v\nreset: %v", want, got)
			}

			// Introspection must match too (PQS pivots read it directly).
			if !reflect.DeepEqual(fresh.Tables(), reused.Tables()) {
				t.Errorf("tables: %v vs %v", fresh.Tables(), reused.Tables())
			}
			if !reflect.DeepEqual(fresh.RawRows("t0"), reused.RawRows("t0")) {
				t.Errorf("raw rows diverged after reset")
			}
			if fresh.CaseSensitiveLike() != reused.CaseSensitiveLike() {
				t.Errorf("case_sensitive_like diverged")
			}
		})
	}
}

// TestResetClearsFaultState verifies fault bookkeeping (corruption, table
// state) cannot leak across lifecycles.
func TestResetClearsFaultState(t *testing.T) {
	e := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.VacuumCorrupt)))
	execAll(t, e, "CREATE TABLE t0(c0 INT)", "INSERT INTO t0 VALUES (1)")
	if _, err := e.Exec("VACUUM"); err == nil {
		t.Fatal("vacuum-corrupt fault did not fire")
	}
	if ok, _ := e.Corrupted(); !ok {
		t.Fatal("database not marked corrupt")
	}
	e.Reset()
	if ok, msg := e.Corrupted(); ok {
		t.Fatalf("corruption survived reset: %s", msg)
	}
	execAll(t, e, "CREATE TABLE t0(c0 INT)", "INSERT INTO t0 VALUES (2)")
	if got := queryRows(t, e, "SELECT c0 FROM t0"); len(got) != 1 {
		t.Fatalf("post-reset rows: %v", got)
	}
}

// TestSnapshotRestoreData exercises the engine-level data snapshot: DML
// and maintenance after the snapshot rewind cleanly; DDL invalidates it.
func TestSnapshotRestoreData(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e,
		"CREATE TABLE t0(c0 INT PRIMARY KEY, c1 TEXT COLLATE NOCASE)",
		"CREATE INDEX i0 ON t0(c1)",
		"INSERT INTO t0 VALUES (1, 'a'), (2, 'b')",
	)
	want := queryRows(t, e, lifecycleQuery)
	snap := e.Snapshot()

	execAll(t, e,
		"INSERT INTO t0 VALUES (3, 'c')",
		"UPDATE t0 SET c1 = 'q' WHERE c0 = 1",
		"DELETE FROM t0 WHERE c0 = 2",
		"REINDEX t0",
		"PRAGMA case_sensitive_like = 1",
	)
	if err := e.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := queryRows(t, e, lifecycleQuery); !reflect.DeepEqual(got, want) {
		t.Errorf("restore diverged:\nwant %v\ngot  %v", want, got)
	}
	if e.CaseSensitiveLike() {
		t.Errorf("session option survived restore")
	}
	// The index must serve restored lookups (not just the heap).
	if got := queryRows(t, e, "SELECT c0 FROM t0 WHERE c1 = 'B'"); len(got) != 1 {
		t.Errorf("index lookup after restore: %v", got)
	}

	// A second restore from the same snapshot works.
	execAll(t, e, "DELETE FROM t0")
	if err := e.Restore(snap); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if got := queryRows(t, e, lifecycleQuery); !reflect.DeepEqual(got, want) {
		t.Errorf("second restore diverged: %v", got)
	}

	// DDL staleness guard.
	execAll(t, e, "CREATE TABLE other(x INT)")
	if err := e.Restore(snap); err == nil {
		t.Error("restore accepted a stale snapshot after DDL")
	}
}

// TestSnapshotDiff checks Diff, the row-multiset comparison of a snapshot
// with the live data: an untouched state is equal through its shared
// storage snapshots, rows rewritten to the same content in another order
// are equal, a changed table is named (the least name when several
// differ), and a live table the snapshot lacks is named with captured
// false.
func TestSnapshotDiff(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e,
		"CREATE TABLE t1(c0 INT, c1 TEXT)",
		"CREATE TABLE t0(c0 REAL)",
		"INSERT INTO t1 VALUES (1, 'a'), (2, 'b'), (2, 'b')",
		"INSERT INTO t0 VALUES (0.5)",
	)
	snap := e.Snapshot()
	check := func(wantTable string, wantCaptured bool) {
		t.Helper()
		if table, captured := e.Diff(snap); table != wantTable || (table != "" && captured != wantCaptured) {
			t.Fatalf("Diff = (%q, %v), want (%q, %v)", table, captured, wantTable, wantCaptured)
		}
	}
	check("", false)
	execAll(t, e, "DELETE FROM t1 WHERE c0 = 1", "INSERT INTO t1 VALUES (1, 'a')")
	check("", false)
	execAll(t, e, "UPDATE t1 SET c1 = 'c' WHERE c0 = 1")
	check("t1", true)
	execAll(t, e, "DELETE FROM t0")
	check("t0", true)
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("", false)
	execAll(t, e, "CREATE TABLE t2(c0 INT)")
	check("t2", false)
}

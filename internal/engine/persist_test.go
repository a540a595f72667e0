package engine

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlval"
	"repro/internal/storage/pager"
	"repro/internal/xerr"
)

// dumpRows encodes a table's ground-truth rows for comparison.
func dumpRows(e *Engine, table string) []string {
	rows := e.RawRows(table)
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += ","
			}
			s += v.Literal()
		}
		out[i] = s
	}
	return out
}

func sameState(t *testing.T, a, b *Engine) {
	t.Helper()
	at, bt := a.Tables(), b.Tables()
	if len(at) != len(bt) {
		t.Fatalf("table count differs: %v vs %v", at, bt)
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("table list differs: %v vs %v", at, bt)
		}
		ar, br := dumpRows(a, at[i]), dumpRows(b, bt[i])
		if len(ar) != len(br) {
			t.Fatalf("%s: %d rows vs %d", at[i], len(ar), len(br))
		}
		for j := range ar {
			if ar[j] != br[j] {
				t.Fatalf("%s row %d: %q vs %q", at[i], j, ar[j], br[j])
			}
		}
	}
}

// TestDurableRoundtrip closes a durable engine and reopens the directory:
// catalog, rows, rowids, options, and indexes must all survive, in every
// dialect.
func TestDurableRoundtrip(t *testing.T) {
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, err := OpenDurable(d, pager.OS(), dir)
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			mustExec(t, e, `CREATE TABLE t0(c0 INT, c1 TEXT)`)
			mustExec(t, e, `CREATE INDEX i0 ON t0(c0)`)
			mustExec(t, e, `INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
			mustExec(t, e, `DELETE FROM t0 WHERE c0 = 2`)
			mustExec(t, e, `UPDATE t0 SET c1 = 'z' WHERE c0 = 3`)
			mustExec(t, e, `CREATE TABLE t1(c0 TEXT)`)
			mustExec(t, e, `INSERT INTO t1(c0) VALUES (NULL), ('x'), ('text')`)
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			r, err := OpenDurable(d, pager.OS(), dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			sameState(t, e, r)
			// The index survived as an index: a lookup still works.
			res := mustExec(t, r, `SELECT c1 FROM t0 WHERE c0 = 3`)
			if len(res.Rows) != 1 || !res.Rows[0][0].Equal(sqlval.Text("z")) {
				t.Fatalf("post-recovery query: %+v", res.Rows)
			}
			// Rowid allocation continues past the deleted row, not over it.
			mustExec(t, r, `INSERT INTO t0(c0, c1) VALUES (4, 'd')`)
			rows := r.RawRows("t0")
			if len(rows) != 3 {
				t.Fatalf("after post-recovery insert: %d rows, want 3", len(rows))
			}
		})
	}
}

// TestDurableFailedStatementPersisted checks the statement-granularity
// contract: a failing multi-row INSERT keeps its partial effect, and that
// partial effect is durable.
func TestDurableFailedStatementPersisted(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE t0(c0 UNIQUE)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1)`)
	if _, err := e.Exec(`INSERT INTO t0(c0) VALUES (2), (1)`); !xerr.Is(err, xerr.CodeUnique) {
		t.Fatalf("want unique violation, got %v", err)
	}
	want := dumpRows(e, "t0") // in-memory ground truth: rows 1 and 2
	if len(want) != 2 {
		t.Fatalf("in-memory after partial insert: %d rows, want 2", len(want))
	}
	e.Close()
	r, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := dumpRows(r, "t0")
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("durable state %v, want %v", got, want)
	}
}

// TestDurableResetWipesDisk checks Reset leaves nothing behind on disk:
// the next open sees a fresh database.
func TestDurableResetWipesDisk(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE t0(c0)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1)`)
	e.Reset()
	if n := len(e.Tables()); n != 0 {
		t.Fatalf("tables after Reset: %d", n)
	}
	e.Close()
	r, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Tables()); n != 0 {
		t.Fatalf("reopened reset database has %d tables", n)
	}
}

// TestDurableCrashAtomicity arms a mid-commit power cut: the statement
// dies with CodeIO and recovery restores exactly the pre-statement state
// (LostTail drops the whole unsynced transaction).
func TestDurableCrashAtomicity(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dialect.SQLite, pager.NewSim(pager.OS()), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE TABLE t0(c0)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1)`)

	plan := pager.CrashPlan{Point: pager.BeforeSync, Mode: pager.LostTail}
	if !e.ArmCrash(plan) {
		t.Fatal("ArmCrash refused on a SimVFS engine")
	}
	_, err = e.Exec(`INSERT INTO t0(c0) VALUES (2)`)
	if !xerr.Is(err, xerr.CodeIO) {
		t.Fatalf("armed statement: err=%v, want CodeIO", err)
	}
	// The mutation applied in memory before the pager died.
	if n := len(e.RawRows("t0")); n != 2 {
		t.Fatalf("in-memory rows after armed crash: %d, want 2", n)
	}
	// Every later statement fails too: the database is dead.
	if _, err := e.Exec(`INSERT INTO t0(c0) VALUES (3)`); !xerr.Is(err, xerr.CodeIO) {
		t.Fatalf("dead engine accepted a statement: %v", err)
	}

	if err := e.CrashRecover(plan); err != nil {
		t.Fatalf("CrashRecover: %v", err)
	}
	rows := dumpRows(e, "t0")
	if len(rows) != 1 || rows[0] != "1" {
		t.Fatalf("recovered rows %v, want just the committed row 1", rows)
	}
	// The engine is alive again.
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (4)`)
	if n := len(e.RawRows("t0")); n != 2 {
		t.Fatalf("post-recovery insert: %d rows, want 2", n)
	}
}

// TestDurableSnapshotStaleAfterRecovery checks the DDL-epoch staleness
// guard from the scheduler lifecycle: crash recovery rebuilds the catalog,
// so snapshots from before the crash must be refused.
func TestDurableSnapshotStaleAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dialect.SQLite, pager.NewSim(pager.OS()), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE TABLE t0(c0)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1)`)
	snap := e.Snapshot()
	if err := e.CrashRecover(pager.CrashPlan{Point: pager.AfterSync, Mode: pager.LostTail}); err != nil {
		t.Fatalf("CrashRecover: %v", err)
	}
	if err := e.Restore(snap); !xerr.Is(err, xerr.CodeUnsupported) {
		t.Fatalf("Restore(pre-crash snapshot) = %v, want stale-snapshot refusal", err)
	}
}

// TestDurableDiffAfterRecovery checks the recovery oracle's comparison:
// a pre-crash snapshot compares equal to the recovered state by reading
// its rows, since recovery rebuilds every heap and none may still hold a
// pre-crash storage snapshot.
func TestDurableDiffAfterRecovery(t *testing.T) {
	e, err := OpenDurable(dialect.SQLite, pager.NewSim(pager.OS()), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE TABLE t0(c0)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1), (2)`)
	snap := e.Snapshot()
	if err := e.CrashRecover(pager.CrashPlan{Point: pager.AfterSync, Mode: pager.LostTail}); err != nil {
		t.Fatalf("CrashRecover: %v", err)
	}
	if e.data["t0"].Holds(snap.table("t0")) {
		t.Fatal("recovered heap holds a pre-crash storage snapshot")
	}
	if table, _ := e.Diff(snap); table != "" {
		t.Fatalf("Diff after a clean recovery names %s", table)
	}
	mustExec(t, e, `DELETE FROM t0 WHERE c0 = 2`)
	if table, captured := e.Diff(snap); table != "t0" || !captured {
		t.Fatalf("Diff = (%q, %v), want (t0, true)", table, captured)
	}
}

// TestDurableSnapshotRestorePersists checks Restore re-commits the rewound
// state: what a reopened engine sees is the restored data, not the DML
// that came after the snapshot.
func TestDurableSnapshotRestorePersists(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE t0(c0)`)
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (1), (2)`)
	snap := e.Snapshot()
	mustExec(t, e, `INSERT INTO t0(c0) VALUES (3), (4)`)
	mustExec(t, e, `DELETE FROM t0 WHERE c0 = 1`)
	if err := e.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	want := dumpRows(e, "t0")
	e.Close()

	r, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := dumpRows(r, "t0")
	if len(got) != len(want) {
		t.Fatalf("reopened rows %v, want restored state %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reopened rows %v, want restored state %v", got, want)
		}
	}
}

// TestDurableStatsExposed checks the pager counters surface through the
// engine (the dbshell .storage command reads these).
func TestDurableStatsExposed(t *testing.T) {
	e := Open(dialect.SQLite)
	if _, ok := e.PagerStats(); ok {
		t.Fatal("in-memory engine claims pager stats")
	}
	dir := t.TempDir()
	de, err := OpenDurable(dialect.SQLite, pager.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if !de.Durable() {
		t.Fatal("OpenDurable engine not Durable")
	}
	mustExec(t, de, `CREATE TABLE t0(c0)`)
	mustExec(t, de, `INSERT INTO t0(c0) VALUES (1)`)
	st, ok := de.PagerStats()
	if !ok || st.Commits < 2 || st.WalFrames == 0 {
		t.Fatalf("PagerStats = %+v, ok=%v; want >= 2 commits", st, ok)
	}
}

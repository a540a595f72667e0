package oracle_test

import (
	"strings"
	"testing"

	_ "repro/internal/core" // registers the "pqs" oracle
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/reduce"
	"repro/internal/runner"
	"repro/internal/sut"
	_ "repro/internal/sut/memengine"
)

func openDB(t *testing.T, fs *faults.Set, setup ...string) sut.DB {
	t.Helper()
	db, err := sut.Open("", sut.Session{Dialect: dialect.SQLite, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, sql := range setup {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	return db
}

func rowCount(t *testing.T, db sut.DB, sql string) int {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return len(res.Rows)
}

// The four metamorphic fault sites, pinned at the engine level so matrix
// failures are debuggable without campaign archaeology.

func TestUnionAllDedupFaultSite(t *testing.T) {
	const q = "SELECT c0 FROM t0 WHERE 1 UNION ALL SELECT c0 FROM t0 WHERE 0"
	setup := []string{"CREATE TABLE t0(c0)", "INSERT INTO t0 VALUES (1), (1)"}
	if got := rowCount(t, openDB(t, nil, setup...), q); got != 2 {
		t.Errorf("clean engine: %d rows, want 2", got)
	}
	db := openDB(t, faults.NewSet(faults.UnionAllDedup), setup...)
	if got := rowCount(t, db, q); got != 1 {
		t.Errorf("union-all-dedup: %d rows, want 1 (deduplicated)", got)
	}
}

func TestNullPartitionDropFaultSite(t *testing.T) {
	const q = "SELECT c0 FROM t0 WHERE c0 > 0 UNION ALL SELECT c0 FROM t0 WHERE (c0 > 0) IS NULL"
	setup := []string{"CREATE TABLE t0(c0)", "INSERT INTO t0 VALUES (1), (NULL)"}
	if got := rowCount(t, openDB(t, nil, setup...), q); got != 2 {
		t.Errorf("clean engine: %d rows, want 2", got)
	}
	db := openDB(t, faults.NewSet(faults.NullPartitionDrop), setup...)
	if got := rowCount(t, db, q); got != 1 {
		t.Errorf("null-partition-drop: %d rows, want 1 (IS NULL arm dropped)", got)
	}
}

func TestAggEmptyGroupFaultSite(t *testing.T) {
	setup := []string{"CREATE TABLE t0(c0)", "INSERT INTO t0 VALUES (-3)"}
	check := func(db sut.DB, sql, want string) {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Fatalf("%q: unexpected shape %v", sql, res.Rows)
		}
		if got := res.Rows[0][0].String(); got != want {
			t.Errorf("%q = %s, want %s", sql, got, want)
		}
	}
	clean := openDB(t, nil, setup...)
	check(clean, "SELECT COUNT(c0) FROM t0 WHERE 0", "0")
	check(clean, "SELECT SUM(c0) FROM t0 WHERE 0", "NULL")
	buggy := openDB(t, faults.NewSet(faults.AggEmptyGroup), setup...)
	check(buggy, "SELECT COUNT(c0) FROM t0 WHERE 0", "1")
	check(buggy, "SELECT SUM(c0) FROM t0 WHERE 0", "0")
	check(buggy, "SELECT MAX(c0) FROM t0 WHERE 0", "0")
	// Non-empty inputs are untouched.
	check(buggy, "SELECT COUNT(c0) FROM t0 WHERE 1", "1")
}

func TestNorecCountMismatchFaultSite(t *testing.T) {
	setup := []string{"CREATE TABLE t0(c0)", "INSERT INTO t0 VALUES (1), (2)"}
	db := openDB(t, faults.NewSet(faults.NorecCountMismatch), setup...)
	if got := rowCount(t, db, "SELECT * FROM t0 WHERE c0 > 0"); got != 1 {
		t.Errorf("star+WHERE: %d rows, want 1 (first match dropped)", got)
	}
	// The unoptimized NoREC side (no star, or no WHERE) is unaffected.
	if got := rowCount(t, db, "SELECT c0 FROM t0 WHERE c0 > 0"); got != 2 {
		t.Errorf("named projection: %d rows, want 2", got)
	}
	if got := rowCount(t, db, "SELECT * FROM t0"); got != 2 {
		t.Errorf("star without WHERE: %d rows, want 2", got)
	}
}

// TestRegistrySurface checks the registry contract: the three oracles are
// registered, lookups construct them, unknown names error.
func TestRegistrySurface(t *testing.T) {
	names := oracle.Names()
	for _, want := range []string{"pqs", "tlp", "norec"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("oracle %q not registered (have %v)", want, names)
		}
		o, err := oracle.New(want, oracle.Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", want, err)
		}
		if o.Name() != want {
			t.Errorf("New(%q).Name() = %q", want, o.Name())
		}
	}
	if _, err := oracle.New("nosuch", oracle.Options{}); err == nil {
		t.Error("New(nosuch) did not error")
	}
}

// TestOneShotChecks drives the registry oracles the way dbshell's .oracle
// command does: repeated one-shot checks against an already-built
// database, no campaign machinery.
func TestOneShotChecks(t *testing.T) {
	setup := []string{
		"CREATE TABLE t0(c0 INT, c1 TEXT)",
		"INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (NULL, 'c')",
	}
	oneShot := func(t *testing.T, db sut.DB, name string, checks int) *oracle.Report {
		t.Helper()
		o, err := oracle.New(name, oracle.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env := &oracle.Env{Dialect: dialect.SQLite, Rnd: gen.NewRand(dialect.SQLite, 7)}
		for i := 0; i < checks; i++ {
			rep, err := o.Check(db, env)
			if err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				return rep
			}
		}
		return nil
	}
	t.Run("clean", func(t *testing.T) {
		db := openDB(t, nil, setup...)
		for _, name := range []string{"pqs", "tlp", "norec"} {
			if rep := oneShot(t, db, name, 50); rep != nil {
				t.Errorf("%s flagged a clean database: %s", name, rep.Message)
			}
		}
	})
	t.Run("norec-fault", func(t *testing.T) {
		db := openDB(t, faults.NewSet(faults.NorecCountMismatch), setup...)
		rep := oneShot(t, db, "norec", 50)
		if rep == nil {
			t.Fatal("norec one-shot missed sqlite.norec-count-mismatch in 50 checks")
		}
		if rep.DetectedBy != "norec" || rep.Oracle != faults.OracleNoREC {
			t.Errorf("report attribution: DetectedBy=%q Oracle=%q", rep.DetectedBy, rep.Oracle)
		}
		if rep.Compare == "" || len(rep.Trace) == 0 {
			t.Errorf("report missing replay material: compare=%q trace=%d", rep.Compare, len(rep.Trace))
		}
	})
	t.Run("tlp-fault", func(t *testing.T) {
		db := openDB(t, faults.NewSet(faults.UnionAllDedup),
			"CREATE TABLE t0(c0)", "INSERT INTO t0 VALUES (1), (1), (1)")
		rep := oneShot(t, db, "tlp", 80)
		if rep == nil {
			t.Fatal("tlp one-shot missed sqlite.union-all-dedup in 80 checks")
		}
		if rep.DetectedBy != "tlp" || rep.Oracle != faults.OracleTLP {
			t.Errorf("report attribution: DetectedBy=%q Oracle=%q", rep.DetectedBy, rep.Oracle)
		}
	})
}

// TestOneShotSeesStatementsBetweenChecks holds the one-shot path of the
// metamorphic oracles to the live database: one oracle instance serves
// every check (and keeps its reused memory), but without a campaign's
// per-database snapshot each check captures the database afresh. A table
// created and filled between two checks, and rows inserted into a table
// that was empty, are targets of the later checks: detections of a fault
// that needs rows name them.
func TestOneShotSeesStatementsBetweenChecks(t *testing.T) {
	for _, tc := range []struct {
		oracle string
		fault  faults.Fault
	}{
		{"norec", faults.NorecCountMismatch},
		{"tlp", faults.UnionAllDedup},
	} {
		t.Run(tc.oracle, func(t *testing.T) {
			db := openDB(t, faults.NewSet(tc.fault), "CREATE TABLE t0(c0 INT)")
			o, err := oracle.New(tc.oracle, oracle.Options{})
			if err != nil {
				t.Fatal(err)
			}
			env := &oracle.Env{Dialect: dialect.SQLite, Rnd: gen.NewRand(dialect.SQLite, 7)}
			// detectOn runs up to 200 checks and returns the first
			// detection whose message names table, failing on any
			// detection before want is true.
			detectOn := func(table string, want bool) {
				t.Helper()
				for i := 0; i < 200; i++ {
					rep, err := o.Check(db, env)
					if err != nil {
						t.Fatal(err)
					}
					if rep == nil {
						continue
					}
					if !want {
						t.Fatalf("check %d flagged an empty database: %s", i, rep.Message)
					}
					if strings.Contains(rep.Message, "on "+table) {
						return
					}
				}
				if want {
					t.Fatalf("no detection on %s within 200 checks", table)
				}
			}
			detectOn("t0", false) // empty: no fault can show
			for _, sql := range []string{"CREATE TABLE t1(c0 INT, c1 TEXT)", "INSERT INTO t1 VALUES (1, 'a'), (1, 'a'), (1, 'a')"} {
				if _, err := db.Exec(sql); err != nil {
					t.Fatal(err)
				}
			}
			detectOn("t1", true)
			if _, err := db.Exec("INSERT INTO t0 VALUES (2), (2), (2)"); err != nil {
				t.Fatal(err)
			}
			detectOn("t0", true)
		})
	}
}

// TestMetamorphicReduction proves reduced repro scripts of metamorphic
// detections still reproduce: the reducer replays both sides of the
// comparison (the bug's Compare partner) rather than a pivot tuple.
func TestMetamorphicReduction(t *testing.T) {
	for _, tc := range []struct {
		fault  faults.Fault
		oracle string
	}{
		{faults.UnionAllDedup, "tlp"},
		{faults.AggEmptyGroup, "tlp"},
		{faults.NorecCountMismatch, "norec"},
	} {
		tc := tc
		t.Run(string(tc.fault), func(t *testing.T) {
			t.Parallel()
			res := runner.Run(runner.Campaign{
				Dialect:      dialect.SQLite,
				Fault:        tc.fault,
				MaxDatabases: 800,
				BaseSeed:     1,
				Reduce:       true,
				Oracles:      []string{tc.oracle},
			})
			if !res.Detected {
				t.Fatalf("%s not detected", tc.fault)
			}
			if len(res.Reduced) == 0 || len(res.Reduced) > len(res.Bug.Trace) {
				t.Fatalf("reduction produced %d statements from %d", len(res.Reduced), len(res.Bug.Trace))
			}
			// The reduced trace must still reproduce under the metamorphic
			// replay check.
			check := reduce.CheckerFor(res.Bug, dialect.SQLite, faults.NewSet(tc.fault))
			if !check(res.Reduced) {
				t.Fatalf("reduced trace no longer reproduces:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
			// And must stop reproducing on a fault-free engine (guards
			// against a vacuously-true checker).
			clean := reduce.CheckerFor(res.Bug, dialect.SQLite, nil)
			if clean(res.Reduced) {
				t.Fatalf("checker reproduces on the fault-free engine:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
		})
	}
}

// TestTLPSumOverInheritedRows is the reduced Postgres false positive: t0's
// own stored rows hold only a NULL in c1, so they alone looked
// all-integral, but a scan of t0 also reads the REAL values of t1, which
// inherits from it.
// SUM over them must fall back to COUNT rather than recombine float
// partition sums as integers.
func TestTLPSumOverInheritedRows(t *testing.T) {
	db, err := sut.Open("", sut.Session{Dialect: dialect.Postgres})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, sql := range []string{
		"CREATE TABLE t0(c0 serial UNIQUE, c1 REAL, c2 INT PRIMARY KEY)",
		"CREATE TABLE t1(c0 INT) INHERITS (t0)",
		"INSERT INTO t1 VALUES (-128, -1e+10, -9223372036854775808)",
		"INSERT INTO t0 VALUES (1, NULL, 1)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	o, err := oracle.New("tlp", oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := &oracle.Env{Dialect: dialect.Postgres, Rnd: gen.NewRand(dialect.Postgres, 7)}
	for i := 0; i < 300; i++ {
		rep, err := o.Check(db, env)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			t.Fatalf("tlp flagged a clean database: %s\n  %s", rep.Message, rep.Compare)
		}
	}
}

package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
)

// TestHashJoinEdgeCases pins the tricky key-normalization rows: NULL keys
// never match (but LEFT-preserve), cross-collation ON folds case, and
// affinity-mismatched key columns compare the way their dialect does.
func TestHashJoinEdgeCases(t *testing.T) {
	t.Run("null keys", func(t *testing.T) {
		for _, d := range dialect.All {
			e := Open(d)
			execAll(t, e,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k INT)",
				"INSERT INTO a VALUES (1), (NULL), (2)",
				"INSERT INTO b VALUES (NULL), (1), (NULL)",
			)
			if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.k = b.k"); n != 1 {
				t.Errorf("%s: NULL keys joined: got %d rows, want 1", d, n)
			}
			if n := rowCount(t, e, "SELECT * FROM a LEFT JOIN b ON a.k = b.k"); n != 3 {
				t.Errorf("%s: LEFT JOIN over NULL keys: got %d rows, want 3", d, n)
			}
		}
	})
	t.Run("cross collation", func(t *testing.T) {
		e := Open(dialect.SQLite)
		execAll(t, e,
			"CREATE TABLE a(s TEXT)", "CREATE TABLE b(s TEXT COLLATE NOCASE)",
			"INSERT INTO a VALUES ('x'), ('Y')",
			"INSERT INTO b VALUES ('X'), ('y')",
		)
		// ON collation comes from the left operand's column (BINARY): no
		// fold, no matches.
		if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.s = b.s"); n != 0 {
			t.Errorf("BINARY-collated join matched %d rows, want 0", n)
		}
		// NOCASE (from b's column or an explicit COLLATE) folds case.
		if n := rowCount(t, e, "SELECT * FROM b JOIN a ON b.s = a.s"); n != 2 {
			t.Errorf("NOCASE-collated join matched %d rows, want 2", n)
		}
		if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.s = b.s COLLATE NOCASE"); n != 2 {
			t.Errorf("explicit COLLATE NOCASE join matched %d rows, want 2", n)
		}
		// RTRIM ignores trailing spaces.
		execAll(t, e,
			"CREATE TABLE c(s TEXT)",
			"INSERT INTO c VALUES ('x   '), ('z')",
		)
		if n := rowCount(t, e, "SELECT * FROM a JOIN c ON a.s = c.s COLLATE RTRIM"); n != 1 {
			t.Errorf("COLLATE RTRIM join matched %d rows, want 1", n)
		}
	})
	t.Run("affinity mismatch", func(t *testing.T) {
		// MySQL coerces the text keys to numbers; the SQLite profile
		// compares by storage class, so no INTEGER equals a TEXT.
		for d, want := range map[dialect.Dialect]int{dialect.SQLite: 0, dialect.MySQL: 2} {
			e := Open(d)
			execAll(t, e,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k TEXT)",
				"INSERT INTO a VALUES (1), (2), (3)",
				"INSERT INTO b VALUES ('1'), ('2'), ('x')",
			)
			if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.k = b.k"); n != want {
				t.Errorf("%s: affinity-mismatched join matched %d rows, want %d", d, n, want)
			}
		}
	})
	t.Run("empty build side", func(t *testing.T) {
		for _, d := range dialect.All {
			e := Open(d)
			execAll(t, e,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k INT)",
				"INSERT INTO a VALUES (1), (2)",
			)
			if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.k = b.k"); n != 0 {
				t.Errorf("%s: join against empty table returned %d rows", d, n)
			}
			if n := rowCount(t, e, "SELECT * FROM a LEFT JOIN b ON a.k = b.k"); n != 2 {
				t.Errorf("%s: LEFT JOIN against empty table returned %d rows, want 2", d, n)
			}
			if n := rowCount(t, e, "SELECT * FROM b JOIN a ON b.k = a.k"); n != 0 {
				t.Errorf("%s: join from empty table returned %d rows", d, n)
			}
		}
	})
}

// seedJoinPair loads two plain tables big enough that the cost model
// always picks hash over nested for their equi-join.
func seedJoinPair(t *testing.T, e *Engine, rows int) {
	t.Helper()
	execAll(t, e,
		"CREATE TABLE big0(k INT, v TEXT)",
		"CREATE TABLE big1(k INT, v TEXT)",
	)
	for _, tbl := range []string{"big0", "big1"} {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tbl)
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 'v%d')", i, i)
		}
		mustExec(t, e, b.String())
	}
}

// TestJoinStrategyExplain asserts the planner surfaces the chosen join
// strategy — HASH, INDEX LOOKUP, or NESTED LOOP — through Plan and
// EXPLAIN QUERY PLAN, and that the ablation pins everything to nested.
func TestJoinStrategyExplain(t *testing.T) {
	e := Open(dialect.SQLite)
	seedJoinPair(t, e, 40)

	// Index lookup pays off when a small outer side probes a large indexed
	// inner table (its cost scales with the outer row count).
	execAll(t, e,
		"CREATE TABLE probe(k INT)",
		"INSERT INTO probe VALUES (1), (2), (3)",
		"CREATE INDEX ib1 ON big1(k)",
	)
	paths, err := e.PlanSQL("SELECT * FROM probe JOIN big1 ON probe.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0].Join != "" {
		t.Fatalf("paths = %+v, want 2 with no join tag on the driving relation", paths)
	}
	if paths[1].Join != "INDEX LOOKUP" || !strings.Contains(paths[1].JoinCond, "INDEX ib1") {
		t.Errorf("indexed equi-join plan = %s, want INDEX LOOKUP via ib1", paths[1].Detail())
	}

	mustExec(t, e, "DROP INDEX ib1")
	paths, err = e.PlanSQL("SELECT * FROM big0 JOIN big1 ON big0.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if paths[1].Join != "HASH" || !strings.Contains(paths[1].JoinCond, "big0.k = big1.k") {
		t.Errorf("equi-join plan = %s, want HASH on big0.k = big1.k", paths[1].Detail())
	}
	if !strings.Contains(paths[1].Detail(), "JOIN USING HASH") {
		t.Errorf("Detail() = %q, want JOIN USING HASH", paths[1].Detail())
	}

	paths, err = e.PlanSQL("SELECT * FROM big0 JOIN big1 ON big0.k < big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if paths[1].Join != "NESTED LOOP" {
		t.Errorf("theta-join plan = %s, want NESTED LOOP", paths[1].Detail())
	}

	// EXPLAIN QUERY PLAN carries the same tag through SQL.
	res, err := e.Exec("EXPLAIN QUERY PLAN SELECT * FROM big0 JOIN big1 ON big0.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	var joined []string
	for _, row := range res.Rows {
		joined = append(joined, row[0].Display())
	}
	all := strings.Join(joined, "\n")
	if !strings.Contains(all, "JOIN USING HASH") {
		t.Errorf("EXPLAIN QUERY PLAN = %q, want JOIN USING HASH line", all)
	}

	// Ablation: WithoutHashJoin pins the annotation to nested loop too.
	off := Open(dialect.SQLite, WithoutHashJoin())
	seedJoinPair(t, off, 40)
	paths, err = off.PlanSQL("SELECT * FROM big0 JOIN big1 ON big0.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if paths[1].Join != "NESTED LOOP" {
		t.Errorf("ablated plan = %s, want NESTED LOOP", paths[1].Detail())
	}
}

// TestJoinCostModelCrossover pins the cost crossover: tiny joins keep the
// nested loop (lower constant cost), larger ones flip to hash.
func TestJoinCostModelCrossover(t *testing.T) {
	a := &joinAnalysis{keys: []equiKey{{}}}
	if s, _ := chooseJoinStrategy(a, 2, 2); s != JoinNested {
		t.Errorf("2x2 equi-join chose %s, want nested (cost 4 vs 6)", s)
	}
	if s, _ := chooseJoinStrategy(a, 3, 3); s != JoinHash {
		t.Errorf("3x3 equi-join chose %s, want hash (cost 8 vs 9)", s)
	}
	if s, _ := chooseJoinStrategy(a, 1000, 1000); s != JoinHash {
		t.Errorf("1000x1000 equi-join chose %s, want hash", s)
	}
}

// TestHashJoinRuntimeCoverage proves the executor actually runs the hash
// and index-lookup paths (not just the planner annotation) via the
// engine's coverage counters.
func TestHashJoinRuntimeCoverage(t *testing.T) {
	e := Open(dialect.SQLite)
	seedJoinPair(t, e, 40)
	if n := rowCount(t, e, "SELECT * FROM big0 JOIN big1 ON big0.k = big1.k"); n != 40 {
		t.Fatalf("equi-join returned %d rows, want 40", n)
	}
	if e.Coverage().Snapshot()["join.hash"] == 0 {
		t.Error("hash join path never executed")
	}
	execAll(t, e,
		"CREATE TABLE probe(k INT)",
		"INSERT INTO probe VALUES (1), (2), (3)",
		"CREATE INDEX ib1 ON big1(k)",
	)
	if n := rowCount(t, e, "SELECT * FROM probe JOIN big1 ON probe.k = big1.k"); n != 3 {
		t.Fatalf("indexed equi-join returned %d rows, want 3", n)
	}
	if e.Coverage().Snapshot()["join.index-lookup"] == 0 {
		t.Error("index-lookup join path never executed")
	}

	off := Open(dialect.SQLite, WithoutHashJoin())
	seedJoinPair(t, off, 40)
	if n := rowCount(t, off, "SELECT * FROM big0 JOIN big1 ON big0.k = big1.k"); n != 40 {
		t.Fatalf("ablated equi-join returned %d rows, want 40", n)
	}
	cov := off.Coverage().Snapshot()
	if cov["join.hash"] != 0 || cov["join.index-lookup"] != 0 {
		t.Error("WithoutHashJoin engine still took a non-nested join path")
	}
}

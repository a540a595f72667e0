package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dialect"
	"repro/internal/sqlval"
)

// Property: after an arbitrary DML sequence on an indexed table, an
// index-served equality lookup returns exactly the rows a full scan
// would — the planner's index path must be invisible in results. This is
// the invariant every index fault deliberately breaks; with no faults it
// must hold unconditionally.
func TestIndexScanMatchesFullScanQuick(t *testing.T) {
	probeVals := []string{"0", "1", "-1", "'a'", "'A'", "''", "' '", "2.5", "NULL", "'abc'"}
	f := func(seed int64, collPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		coll := []string{"", " COLLATE NOCASE", " COLLATE RTRIM"}[collPick%3]
		e := Open(dialect.SQLite)
		if _, err := e.Exec(fmt.Sprintf("CREATE TABLE t0(c0%s, c1)", coll)); err != nil {
			return false
		}
		if _, err := e.Exec("CREATE INDEX i0 ON t0(c0)"); err != nil {
			return false
		}
		// Random DML sequence.
		for op := 0; op < 25; op++ {
			v := probeVals[rng.Intn(len(probeVals))]
			w := probeVals[rng.Intn(len(probeVals))]
			var sql string
			switch rng.Intn(5) {
			case 0, 1, 2:
				sql = fmt.Sprintf("INSERT INTO t0(c0, c1) VALUES (%s, %s)", v, w)
			case 3:
				sql = fmt.Sprintf("UPDATE t0 SET c0 = %s WHERE c1 = %s", v, w)
			default:
				sql = fmt.Sprintf("DELETE FROM t0 WHERE c0 = %s", v)
			}
			if _, err := e.Exec(sql); err != nil {
				return false
			}
		}
		// Every probe: the indexed equality path must agree with a
		// filter over a projection that cannot use the index.
		for _, v := range probeVals {
			if v == "NULL" {
				continue
			}
			indexed, err := e.Exec(fmt.Sprintf("SELECT c0 FROM t0 WHERE c0 = %s", v))
			if err != nil {
				return false
			}
			// The +0-style rewrite is not supported; instead compare
			// against an OR-wrapped condition, which the planner does
			// not serve from an index.
			full, err := e.Exec(fmt.Sprintf("SELECT c0 FROM t0 WHERE (c0 = %s) AND (1 = 1)", v))
			if err != nil {
				return false
			}
			if len(indexed.Rows) != len(full.Rows) {
				t.Logf("seed %d coll %q probe %s: indexed %d rows, full %d rows",
					seed, coll, v, len(indexed.Rows), len(full.Rows))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: REINDEX and VACUUM never change query results on a correct
// engine.
func TestMaintenanceIsInvisibleQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Open(dialect.SQLite)
		if _, err := e.Exec("CREATE TABLE t0(c0, c1 TEXT COLLATE NOCASE); CREATE INDEX i0 ON t0(c1)"); err != nil {
			return false
		}
		for i := 0; i < 15; i++ {
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO t0(c0, c1) VALUES (%d, '%c')", rng.Intn(8), 'a'+rune(rng.Intn(4)))); err != nil {
				return false
			}
		}
		query := "SELECT c0, c1 FROM t0 WHERE c1 = 'A' ORDER BY c0"
		before, err := e.Exec(query)
		if err != nil {
			return false
		}
		want := keepRows(before.Rows) // kept across the next statements
		if _, err := e.Exec("REINDEX; VACUUM; ANALYZE"); err != nil {
			return false
		}
		after, err := e.Exec(query)
		if err != nil {
			return false
		}
		if len(want) != len(after.Rows) {
			return false
		}
		for i := range want {
			for j := range want[i] {
				if !want[i][j].Equal(after.Rows[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: DISTINCT never returns duplicates, and never drops a distinct
// value, for random value mixes.
func TestDistinctSetSemanticsQuick(t *testing.T) {
	f := func(vals []int8) bool {
		if len(vals) == 0 {
			return true
		}
		e := Open(dialect.SQLite)
		if _, err := e.Exec("CREATE TABLE t0(c0)"); err != nil {
			return false
		}
		distinct := map[int8]bool{}
		for _, v := range vals {
			distinct[v] = true
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO t0(c0) VALUES (%d)", v)); err != nil {
				return false
			}
		}
		res, err := e.Exec("SELECT DISTINCT c0 FROM t0")
		if err != nil {
			return false
		}
		if len(res.Rows) != len(distinct) {
			return false
		}
		seen := map[int64]bool{}
		for _, row := range res.Rows {
			k := row[0].Int64()
			if seen[k] || !distinct[int8(k)] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: sqlval ordering drives ORDER BY totally — sorting is stable
// and monotone for any inserted values.
func TestOrderBySortedQuick(t *testing.T) {
	f := func(ints []int16) bool {
		e := Open(dialect.SQLite)
		if _, err := e.Exec("CREATE TABLE t0(c0)"); err != nil {
			return false
		}
		for _, v := range ints {
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO t0(c0) VALUES (%d)", v)); err != nil {
				return false
			}
		}
		res, err := e.Exec("SELECT c0 FROM t0 ORDER BY c0")
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if sqlval.Compare(res.Rows[i-1][0], res.Rows[i][0], sqlval.CollBinary) > 0 {
				return false
			}
		}
		return len(res.Rows) == len(ints)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

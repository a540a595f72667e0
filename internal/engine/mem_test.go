package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// resultSlabs name the stmtMem fields that outlive their statement.
var resultSlabs = map[string]bool{"resVals": true, "resRows": true}

// statementSlabs returns every slab field of the engine's statement memory
// except the result slabs, by reflection, so a slab that mark and release
// forget still shows up here.
func statementSlabs(e *Engine) map[string]reflect.Value {
	slabs := map[string]reflect.Value{}
	m := reflect.ValueOf(&e.mem).Elem()
	for i := 0; i < m.NumField(); i++ {
		f := m.Type().Field(i)
		if strings.HasPrefix(f.Type.Name(), "slab[") && !resultSlabs[f.Name] {
			slabs[f.Name] = m.Field(i).FieldByName("buf")
		}
	}
	return slabs
}

// assertArenaEmpty requires every statement slab of the engine to hold
// nothing between statements: zero length, and no pointer or value left
// anywhere in its block that could pin a finished statement's rows.
func assertArenaEmpty(t *testing.T, e *Engine, after string) {
	t.Helper()
	slabs := statementSlabs(e)
	if len(slabs) == 0 {
		t.Fatal("stmtMem has no statement slabs")
	}
	for name, buf := range slabs {
		if n := buf.Len(); n != 0 {
			t.Fatalf("after %s: statement slab %s has length %d, want 0", after, name, n)
		}
		full := buf.Slice(0, buf.Cap())
		for j := 0; j < full.Len(); j++ {
			if !full.Index(j).IsZero() {
				t.Fatalf("after %s: stale element at offset %d of statement slab %s", after, j, name)
			}
		}
	}
}

// slabCaps reports the block size of every statement slab.
func slabCaps(e *Engine) map[string]int {
	caps := map[string]int{}
	for name, buf := range statementSlabs(e) {
		caps[name] = buf.Cap()
	}
	return caps
}

// TestArenaUnwindsOnSimulatedCrash fires sqlite.rowid-alias-crash while
// resolving the second FROM source, after the first source's view join
// already ran on the statement slabs: the crash unwinds through
// execSelect's release, and the next join reads correct rows from empty
// slabs.
func TestArenaUnwindsOnSimulatedCrash(t *testing.T) {
	setup := append([]string{
		"CREATE TABLE r(c0 INT)",
		"INSERT INTO r VALUES (1)",
		"ALTER TABLE r RENAME COLUMN c0 TO c1",
	}, joinViewSetup...)
	e, clean := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.RowidAliasCrash))), Open(dialect.SQLite)
	for _, x := range []*Engine{e, clean} {
		execAll(t, x, joinSetup...)
		execAll(t, x, setup...)
	}
	_, err := e.Exec("SELECT * FROM vj, r")
	if code, _ := xerr.CodeOf(err); code != xerr.CodeCrash {
		t.Fatalf("SELECT * FROM vj, r: err = %v, want a simulated crash", err)
	}
	assertArenaEmpty(t, e, "the crash")
	const q = "SELECT j0.k, j1.v, j2.s FROM j0 JOIN j1 ON j0.k = j1.k LEFT JOIN j2 ON j1.k = j2.k"
	if got, want := runQuery(e, q), runQuery(clean, q); got != want {
		t.Errorf("join after the crash:\n%s\nwant:\n%s", got, want)
	}
	assertArenaEmpty(t, e, q)
}

// TestArenaReleasesAfterLargeJoin runs a large cross join and then a small
// one: each leaves the statement slabs empty, and a repeat of the large
// join reuses the grown blocks instead of allocating others.
func TestArenaReleasesAfterLargeJoin(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e, "CREATE TABLE big(x INT)", "CREATE TABLE small(y INT)", "INSERT INTO small VALUES (1), (2)")
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	execAll(t, e, "INSERT INTO big VALUES "+strings.Join(vals, ", "))

	const large = "SELECT COUNT(*) FROM big AS a, big AS b, small"
	const smallJoin = "SELECT small.y, big.x FROM small, big WHERE big.x = small.y"
	count := func(q string) int {
		t.Helper()
		res, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if q == large {
			return int(res.Rows[0][0].Int64())
		}
		return len(res.Rows)
	}
	if n := count(large); n != 200*200*2 {
		t.Fatalf("large cross join counted %d rows, want %d", n, 200*200*2)
	}
	assertArenaEmpty(t, e, "the large join")
	if p := slabCaps(e)["ptrs"]; p < 200*200*3 {
		t.Fatalf("combo slab holds %d pointers after a join that carved %d", p, 200*200*3)
	}
	if n := count(smallJoin); n != 2 {
		t.Fatalf("small join returned %d rows, want 2", n)
	}
	assertArenaEmpty(t, e, "the small join")
	// The small hash join carves its table from slabs the cross join
	// never touched, so the blocks to keep are those after both.
	grown := slabCaps(e)
	count(large)
	assertArenaEmpty(t, e, "the repeated large join")
	if c := slabCaps(e); !maps.Equal(c, grown) {
		t.Errorf("repeated large join regrew the statement slabs: %v -> %v", grown, c)
	}
}

// TestArenaCarveStaysUnderCap runs an equi-join whose level bound
// (1000×1001 combos) is far above the idle cap while its output is 1000
// combos: the carve stops at the cap, so the combo slab keeps its block
// after the statement and a repeat reuses every block.
func TestArenaCarveStaysUnderCap(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e, "CREATE TABLE a(k INT)", "CREATE TABLE b(k INT)")
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	execAll(t, e, "INSERT INTO a VALUES "+strings.Join(vals, ", "), "INSERT INTO b VALUES "+strings.Join(vals, ", "))
	const q = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k"
	if n := mustExec(t, e, q).Rows[0][0].Int64(); n != 1000 {
		t.Fatalf("%q counted %d rows, want 1000", q, n)
	}
	assertArenaEmpty(t, e, q)
	for name, buf := range statementSlabs(e) {
		if bytes := buf.Cap() * int(buf.Type().Elem().Size()); bytes > slabRetainBytes {
			t.Errorf("statement slab %s kept a %d-byte block, over the %d-byte idle cap", name, bytes, slabRetainBytes)
		}
	}
	grown := slabCaps(e)
	if grown["combos"] == 0 {
		t.Fatal("the combo slab dropped its block: the level's carve grew it past the idle cap")
	}
	mustExec(t, e, q)
	if c := slabCaps(e); !maps.Equal(c, grown) {
		t.Errorf("repeated join regrew the statement slabs: %v -> %v", grown, c)
	}
}

// TestResultLifetime pins the ownership rule of Result: a result stays
// intact while the views and compound arms inside its statement run on the
// same result slabs, and its rows read as NULL once the next statement has
// released them (until a later result reuses the memory). Each query runs
// once before the checked run, so its result fits the slabs' current
// blocks: rows left in an outgrown block are not cleared.
func TestResultLifetime(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e, joinSetup...)
	execAll(t, e, joinViewSetup...)
	for _, c := range []struct{ q, want string }{
		{"SELECT vj.k, vj.v, j2.s FROM vj LEFT JOIN j2 ON vj.k = j2.k",
			"k|v|s\n1|100|'a'\n2|200|NULL\n2|201|NULL\n2|200|NULL\n2|201|NULL\n"},
		{"SELECT j2.k, j2.s FROM j2 UNION ALL SELECT vj.k, vj.s FROM vj",
			"k|s\n1|'a'\n3|'C'\n5|'e'\n1|'a'\n2|'B'\n2|'B'\n2|'b '\n2|'b '\n"},
		{"SELECT vj.k, vj.v FROM vj INTERSECT SELECT j1.k, j1.v FROM j1",
			"k|v\n1|100\n2|200\n2|201\n"},
	} {
		mustExec(t, e, c.q)
		res, err := e.Exec(c.q)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		if got := renderResult(res); got != c.want {
			t.Fatalf("%q:\n%s\nwant:\n%s", c.q, got, c.want)
		}
		held := slices.Clone(res.Rows)
		kept := keepRows(res.Rows)
		// A row-less next statement: a later result would reuse the
		// released memory.
		mustExec(t, e, "UPDATE j3 SET v = v")
		for i, row := range held {
			for j, v := range row {
				if !v.IsNull() {
					t.Errorf("%q: row %d column %d still reads %s after the next statement", c.q, i, j, v.Literal())
				}
			}
		}
		if got := renderResult(&Result{Columns: res.Columns, Rows: kept}); got != c.want {
			t.Errorf("%q: copied rows changed after the next statement:\n%s\nwant:\n%s", c.q, got, c.want)
		}
	}
}

// keepRows deep-copies result rows that a test holds across another
// statement on the same engine (the ownership rule on Result).
func keepRows(rows [][]sqlval.Value) [][]sqlval.Value {
	out := make([][]sqlval.Value, len(rows))
	for i, row := range rows {
		out[i] = slices.Clone(row)
	}
	return out
}

package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// assertArenaEmpty requires the engine's combo arena to hold nothing
// between statements: zero length, and no pointer left anywhere in its
// block that could pin a finished statement's rows.
func assertArenaEmpty(t *testing.T, e *Engine, after string) {
	t.Helper()
	if n := len(e.arena.buf); n != 0 {
		t.Fatalf("after %s: arena length %d, want 0", after, n)
	}
	for i, p := range e.arena.buf[:cap(e.arena.buf)] {
		if p != nil {
			t.Fatalf("after %s: stale combo pointer at arena offset %d", after, i)
		}
	}
}

// TestArenaUnwindsOnSimulatedCrash fires sqlite.rowid-alias-crash while
// resolving the second FROM source, after the first source's view join
// already ran on the arena: the crash unwinds through execSelect's release,
// and the next join reads correct rows from an empty arena.
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
// one: each leaves the arena empty, and a repeat of the large join reuses
// the grown block instead of allocating another.
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
	grown := cap(e.arena.buf)
	if grown < 200*200*3 {
		t.Fatalf("arena block holds %d pointers after a join that carved %d", grown, 200*200*3)
	}
	if n := count(smallJoin); n != 2 {
		t.Fatalf("small join returned %d rows, want 2", n)
	}
	assertArenaEmpty(t, e, "the small join")
	count(large)
	assertArenaEmpty(t, e, "the repeated large join")
	if c := cap(e.arena.buf); c != grown {
		t.Errorf("repeated large join regrew the arena: %d -> %d pointers", grown, c)
	}
}

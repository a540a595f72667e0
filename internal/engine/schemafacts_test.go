package engine

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/storage/pager"
	"repro/internal/xerr"
)

// checkSchemaFacts asserts that the catalog's cached facts equal a fresh
// derivation from the catalog's uncached lookups, for every table and view.
// tables is the expected TableNames, in creation order. Asking for the
// facts also warms the caches, so the next schema change must drop them.
func checkSchemaFacts(t *testing.T, e *Engine, tables []string) {
	t.Helper()
	if got := e.Tables(); !slices.Equal(got, tables) {
		t.Errorf("Tables() = %v, want %v", got, tables)
	}
	for _, name := range append(slices.Clone(tables), e.Views()...) {
		tb, ok := e.cat.Table(name)
		if !ok {
			t.Fatalf("no table %s in the catalog", name)
		}
		info, err := e.Describe(name)
		if err != nil || !reflect.DeepEqual(info, schema.Describe(tb)) {
			t.Errorf("Describe(%s) = %+v, %v; want %+v", name, info, err, schema.Describe(tb))
		}
		var indexes []*schema.Index
		var partial []schema.PartialIndex
		for _, in := range e.cat.IndexNames() {
			ix, _ := e.cat.Index(in)
			if !strings.EqualFold(ix.Table, name) {
				continue
			}
			indexes = append(indexes, ix)
			if ix.Where != nil {
				partial = append(partial, schema.PartialIndex{Index: ix, Key: e.cat.PredicateKey(ix.Where)})
			}
		}
		if got := e.cat.IndexesOn(name); !slices.Equal(got, indexes) {
			t.Errorf("IndexesOn(%s) = %v, want %v", name, got, indexes)
		}
		if got := e.cat.PartialIndexesOn(name); !slices.Equal(got, partial) {
			t.Errorf("PartialIndexesOn(%s) = %v, want %v", name, got, partial)
		}
	}
}

// TestSchemaFactsFollowEveryChange runs each kind of schema change on a
// durable engine with warm caches and checks the cached facts against a
// fresh derivation after each one.
func TestSchemaFactsFollowEveryChange(t *testing.T) {
	e, err := OpenDurable(dialect.SQLite, pager.NewSim(pager.OS()), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	exec := func(sql string) func(*testing.T) {
		return func(t *testing.T) { mustExec(t, e, sql) }
	}
	steps := []struct {
		name   string
		run    func(*testing.T)
		tables []string
	}{
		{"create table", exec(`CREATE TABLE t0(c0 INT, c1 TEXT)`), []string{"t0"}},
		{"create second table", exec(`CREATE TABLE t1(c0)`), []string{"t0", "t1"}},
		{"create view", exec(`CREATE VIEW v0 AS SELECT c0 FROM t0`), []string{"t0", "t1"}},
		{"create index", exec(`CREATE INDEX i1 ON t0(c1)`), []string{"t0", "t1"}},
		{"create partial index", exec(`CREATE INDEX i0 ON t0(c0) WHERE c0 IS NOT NULL`), []string{"t0", "t1"}},
		{"create double-quoted index", exec(`CREATE INDEX i2 ON t0("C1")`), []string{"t0", "t1"}},
		{"rename column", exec(`ALTER TABLE t0 RENAME COLUMN c0 TO r0`), []string{"t0", "t1"}},
		{"add column", exec(`ALTER TABLE t0 ADD COLUMN a0`), []string{"t0", "t1"}},
		{"drop index", exec(`DROP INDEX i1`), []string{"t0", "t1"}},
		{"rename table", exec(`ALTER TABLE t1 RENAME TO t2`), []string{"t0", "t2"}},
		{"index renamed table", exec(`CREATE INDEX i3 ON t2(c0)`), []string{"t0", "t2"}},
		{"drop table", exec(`DROP TABLE t2`), []string{"t0"}},
		{"crash-recover replay", func(t *testing.T) {
			// The power cut loses the CREATE INDEX, which memory already
			// holds; recovery replays the DDL log without it.
			if !e.ArmCrash(pager.CrashPlan{Point: pager.BeforeSync, Mode: pager.LostTail}) {
				t.Fatal("ArmCrash refused on a SimVFS engine")
			}
			if _, err := e.Exec(`CREATE INDEX i9 ON t0(a0) WHERE a0 IS NULL`); !xerr.Is(err, xerr.CodeIO) {
				t.Fatalf("armed CREATE INDEX: %v, want CodeIO", err)
			}
			checkSchemaFacts(t, e, []string{"t0"})
			if len(e.cat.PartialIndexesOn("t0")) != 2 {
				t.Fatal("the lost index should be in memory before recovery")
			}
			if err := e.CrashRecover(pager.CrashPlan{Point: pager.BeforeSync, Mode: pager.LostTail}); err != nil {
				t.Fatalf("CrashRecover: %v", err)
			}
		}, []string{"t0"}},
		{"reset", func(*testing.T) { e.Reset() }, nil},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			s.run(t)
			checkSchemaFacts(t, e, s.tables)
		})
	}
}

// TestSchemaFactsAllocFree checks that introspection and planning a SELECT
// over a table with no partial index allocate nothing once the facts are
// built.
func TestSchemaFactsAllocFree(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0 INT, c1 TEXT); CREATE INDEX i0 ON t0(c0); INSERT INTO t0(c0, c1) VALUES (1, 'a')`)
	stmts, err := sqlparse.Parse(`SELECT * FROM t0 WHERE t0.c1 IS NOT 'b' AND (t0.c0 + 1) > 0`, dialect.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmts[0].(*sqlast.Select)
	tb, _ := e.cat.Table("t0")
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Describe", func() { _, _ = e.Describe("t0") }},
		{"Tables", func() { _ = e.Tables() }},
		{"IndexesOn", func() { _ = e.cat.IndexesOn("t0") }},
		{"plan SELECT", func() { _, _ = e.planCandidates(sel, tb, "t0") }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
}

// TestRenameColumnRenamesDoubleQuotedIndexPart is the reduced case of a
// fault-free sqlite PQS false positive (seed 123467): a double-quoted index
// part that names a column resolves to it, so RENAME COLUMN must rename it;
// left as "C3" it read as one string constant for every row and failed the
// UNIQUE check on REINDEX.
func TestRenameColumnRenamesDoubleQuotedIndexPart(t *testing.T) {
	e := Open(dialect.SQLite)
	mustExec(t, e, `CREATE TABLE t0(c0 REAL PRIMARY KEY);
INSERT INTO t0(c0) VALUES (-9223372036854775808), (NULL);
ALTER TABLE t0 RENAME COLUMN c0 TO c3;
CREATE UNIQUE INDEX IF NOT EXISTS i1 ON t0("C3");
ALTER TABLE t0 RENAME COLUMN c3 TO r12;
REINDEX t0`)
}

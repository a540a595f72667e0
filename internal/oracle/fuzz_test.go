package oracle_test

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sut"
)

// FuzzTLPPartition fuzzes the TLP identity itself: for any predicate p the
// parser accepts, the three partitions p / NOT p / p IS NULL recombined
// with UNION ALL must reproduce the unpartitioned query's multiset on the
// fault-free engine. A failure is a real finding — either an engine bug in
// three-valued logic / UNION ALL, or an oracle whose metamorphic identity
// is unsound. The seed corpus doubles as a unit test under plain `go
// test`.
func FuzzTLPPartition(f *testing.F) {
	seeds := []string{
		"c0 > 1",
		"c1 LIKE 'a%'",
		"c0 IS NULL",
		"NOT (c0 = c1)",
		"(c0 + 1) % 2",
		"c0 BETWEEN -1 AND 2",
		"c1 IN ('a', 'b', NULL)",
		"(c0 IS 1) OR (c1 COLLATE NOCASE = 'A')",
		"CAST(c1 AS INTEGER) = c0",
		"NULLIF(c0, 1)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, predSQL string) {
		st, err := sqlparse.ParseOne("SELECT c0 FROM t0 WHERE "+predSQL, dialect.SQLite)
		if err != nil {
			t.Skip()
		}
		sel, ok := st.(*sqlast.Select)
		if !ok || sel.Where == nil || len(sel.From) != 1 || sel.From[0].Name != "t0" {
			t.Skip() // the predicate smuggled in clause keywords
		}
		db, err := sut.Open("", sut.Session{Dialect: dialect.SQLite})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for _, sql := range []string{
			"CREATE TABLE t0(c0 INT, c1 TEXT)",
			"INSERT INTO t0 VALUES (1, 'a'), (1, 'a'), (2, 'B'), (NULL, 'b  '), (-1, NULL), (0, '')",
		} {
			if _, err := db.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		env := &oracle.Env{Dialect: dialect.SQLite, Rnd: gen.NewRand(dialect.SQLite, 1)}
		if rep := oracle.PartitionCheck(db, env, "t0", []string{"c0", "c1"}, sel.Where); rep != nil {
			t.Fatalf("fault-free TLP partition mismatch for %q: %s", predSQL, rep.Message)
		}
	})
}

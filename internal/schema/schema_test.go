package schema

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

func table(name string, cols ...Column) *Table {
	return &Table{Name: name, Columns: cols}
}

func TestCatalogTables(t *testing.T) {
	c := NewCatalog(dialect.SQLite)
	if err := c.AddTable(table("t0", Column{Name: "c0"})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(table("T0")); err == nil {
		t.Error("duplicate (case-insensitive) table should fail")
	}
	if _, ok := c.Table("t0"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := c.Table("T0"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "t0" {
		t.Errorf("TableNames = %v", got)
	}
}

func TestCatalogDropAndRename(t *testing.T) {
	c := NewCatalog(dialect.SQLite)
	_ = c.AddTable(table("t0", Column{Name: "c0"}))
	_ = c.AddIndex(&Index{Name: "i0", Table: "t0"})
	if err := c.RenameTable("t0", "t9"); err != nil {
		t.Fatal(err)
	}
	ix, _ := c.Index("i0")
	if ix.Table != "t9" {
		t.Errorf("index table not rewritten: %s", ix.Table)
	}
	if err := c.DropTable("t9"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Index("i0"); ok {
		t.Error("dropping a table must drop its indexes")
	}
	if err := c.DropTable("t9"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCatalogInheritance(t *testing.T) {
	c := NewCatalog(dialect.SQLite)
	parent := table("t0", Column{Name: "c0"})
	child := table("t1", Column{Name: "c0"})
	child.Parent = "t0"
	_ = c.AddTable(parent)
	_ = c.AddTable(child)
	parent.Children = []string{"t1"}

	leaves := c.InheritanceLeaves(parent)
	if len(leaves) != 2 || leaves[0].Name != "t0" || leaves[1].Name != "t1" {
		t.Errorf("leaves = %v", leaves)
	}
	if err := c.DropTable("t0"); err == nil {
		t.Error("dropping a parent with children should fail")
	}
	if err := c.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	if len(parent.Children) != 0 {
		t.Error("child drop should detach from parent")
	}
	if err := c.DropTable("t0"); err != nil {
		t.Error("parent drop after child removal should succeed")
	}
}

func TestColumnHelpers(t *testing.T) {
	tb := table("t0",
		Column{Name: "c0", PK: true},
		Column{Name: "c1"},
		Column{Name: "c2", PK: true},
	)
	if tb.ColumnIndex("C1") != 1 {
		t.Error("case-insensitive column lookup failed")
	}
	if tb.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if pks := tb.PKColumns(); len(pks) != 2 || pks[0] != 0 || pks[1] != 2 {
		t.Errorf("PKColumns = %v", pks)
	}
}

func TestIndexesOnSorted(t *testing.T) {
	c := NewCatalog(dialect.SQLite)
	_ = c.AddTable(table("t0", Column{Name: "c0"}))
	_ = c.AddIndex(&Index{Name: "i2", Table: "t0"})
	_ = c.AddIndex(&Index{Name: "i1", Table: "t0"})
	if err := c.AddIndex(&Index{Name: "i1", Table: "t0"}); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := c.AddIndex(&Index{Name: "i3", Table: "missing"}); err == nil {
		t.Error("index on missing table should fail")
	}
	got := c.IndexesOn("t0")
	if len(got) != 2 || got[0].Name != "i1" || got[1].Name != "i2" {
		t.Errorf("IndexesOn order: %v", got)
	}
	if names := c.IndexNames(); len(names) != 2 || names[0] != "i1" {
		t.Errorf("IndexNames = %v", names)
	}
	if err := c.DropIndex("i1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("i1"); err == nil {
		t.Error("double index drop should fail")
	}
}

func TestDescribe(t *testing.T) {
	tb := table("t0",
		Column{Name: "c0", TypeName: "INT", Affinity: sqlval.AffInteger, PK: true, NotNull: true},
		Column{Name: "c1", Collate: sqlval.CollNoCase, Unsigned: true},
	)
	tb.WithoutRowid = true
	tb.Engine = "MEMORY"
	info := Describe(tb)
	if !info.WithoutRowid || info.Engine != "MEMORY" || len(info.Columns) != 2 {
		t.Errorf("describe: %+v", info)
	}
	if info.Columns[0].Affinity != "INTEGER" || !info.Columns[0].PK || !info.Columns[0].NotNull {
		t.Errorf("col0: %+v", info.Columns[0])
	}
	if info.Columns[1].Collate != "NOCASE" || !info.Columns[1].Unsigned {
		t.Errorf("col1: %+v", info.Columns[1])
	}
}

func TestViewNames(t *testing.T) {
	c := NewCatalog(dialect.SQLite)
	v := &Table{Name: "v0", IsView: true, ViewDef: &sqlast.Select{}}
	_ = c.AddTable(v)
	_ = c.AddTable(table("t0"))
	if got := c.ViewNames(); len(got) != 1 || got[0] != "v0" {
		t.Errorf("ViewNames = %v", got)
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "t0" {
		t.Errorf("TableNames should exclude views: %v", got)
	}
}

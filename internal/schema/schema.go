// Package schema defines the engine's catalog: tables, columns, indexes,
// and views, plus the introspection snapshots PQS queries to learn the
// database state dynamically (the paper queries sqlite_master /
// information_schema rather than tracking state itself).
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// Column describes one table column.
type Column struct {
	Name     string
	TypeName string // declared type, may be empty in the SQLite dialect
	Affinity sqlval.Affinity
	Unsigned bool // MySQL
	NotNull  bool
	Unique   bool // column-level UNIQUE constraint
	PK       bool // member of the primary key
	Collate  sqlval.Collation
	Default  sqlast.Expr
	Check    sqlast.Expr
}

// Table describes one table.
type Table struct {
	Name         string
	Columns      []Column
	WithoutRowid bool   // SQLite: PK is the row identity, no rowid
	Engine       string // MySQL storage engine ("" = default)
	Parent       string // Postgres inheritance parent
	Children     []string
	IsView       bool // views appear as tables with a definition
	ViewDef      *sqlast.Select
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// PKColumns returns the positions of primary-key columns in declaration
// order.
func (t *Table) PKColumns() []int {
	var out []int
	for i := range t.Columns {
		if t.Columns[i].PK {
			out = append(out, i)
		}
	}
	return out
}

// IndexPart is one key part of an index.
type IndexPart struct {
	X       sqlast.Expr
	Collate sqlval.Collation
	HasColl bool // collation explicitly given on the part
	Desc    bool
}

// Index describes one secondary index.
type Index struct {
	Name    string
	Table   string
	Unique  bool
	Parts   []IndexPart
	Where   sqlast.Expr // partial-index predicate, nil if full
	Implied bool        // created implicitly for a UNIQUE/PK constraint

	// BuildSeq records the statement sequence number at which the index
	// was (re)built; maintenance bugs key off staleness.
	BuildSeq int64
	// BuildCaseSensitiveLike snapshots the case_sensitive_like pragma at
	// build time (Listing 9 reproduction).
	BuildCaseSensitiveLike bool
}

// LeadingColumn returns the bare column name of the index's first key
// part, when it is a plain column reference (the shape the planner's
// point-lookup and range-scan paths require). Double-quoted MaybeString
// parts and expression parts report ok=false.
func (ix *Index) LeadingColumn() (string, bool) {
	if len(ix.Parts) == 0 {
		return "", false
	}
	cr, ok := ix.Parts[0].X.(*sqlast.ColumnRef)
	if !ok || cr.MaybeString {
		return "", false
	}
	return cr.Column, true
}

// Catalog is the database schema. It is not goroutine-safe; the engine
// serializes access.
//
// The catalog also keeps the facts derived from the schema that queries
// consult on every statement (TableNames, IndexesOn, PartialIndexesOn,
// Describe). They are built on first use and dropped by every mutator, so
// they cost one derivation per schema change, not one per statement. The
// slices they return are shared and read-only: a rebuild allocates fresh
// ones, so a caller may keep a result across later schema changes.
type Catalog struct {
	d       dialect.Dialect // renders partial-index predicate keys
	tables  map[string]*Table
	indexes map[string]*Index
	order   []string // table creation order

	names   []string // TableNames, valid when namesOK
	namesOK bool
	facts   map[string]*tableFacts // per lower-case table name, built lazily
}

// tableFacts are one table's schema-derived facts.
type tableFacts struct {
	indexes []*Index       // sorted by name
	partial []PartialIndex // the indexes with a WHERE predicate, same order
	info    TableInfo
}

// PartialIndex is a partial index with its predicate's key: the predicate
// rendered without table qualifiers (see PredicateKey).
type PartialIndex struct {
	*Index
	Key string
}

// NewCatalog returns an empty catalog for a dialect.
func NewCatalog(d dialect.Dialect) *Catalog {
	return &Catalog{
		d:       d,
		tables:  map[string]*Table{},
		indexes: map[string]*Index{},
		facts:   map[string]*tableFacts{},
	}
}

// invalidate drops the derived facts; every mutator calls it.
func (c *Catalog) invalidate() {
	c.names, c.namesOK = nil, false
	clear(c.facts)
}

func key(name string) string { return strings.ToLower(name) }

// Reset empties the catalog in place, keeping its map allocations (engine
// lifecycle pooling: a reset database starts from a pristine catalog
// without reallocating it).
func (c *Catalog) Reset() {
	c.invalidate()
	clear(c.tables)
	clear(c.indexes)
	c.order = c.order[:0]
}

// Table resolves a table or view by name, case-insensitively.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[key(name)]
	return t, ok
}

// AddTable registers a table. It fails if the name is taken.
func (c *Catalog) AddTable(t *Table) error {
	k := key(t.Name)
	if _, dup := c.tables[k]; dup {
		return fmt.Errorf("table %s already exists", t.Name)
	}
	c.invalidate()
	c.tables[k] = t
	c.order = append(c.order, k)
	return nil
}

// DropTable removes a table and its indexes.
func (c *Catalog) DropTable(name string) error {
	k := key(name)
	t, ok := c.tables[k]
	if !ok {
		return fmt.Errorf("no such table: %s", name)
	}
	c.invalidate()
	// Detach from inheritance parent.
	if t.Parent != "" {
		if p, ok := c.Table(t.Parent); ok {
			for i, ch := range p.Children {
				if key(ch) == k {
					p.Children = append(p.Children[:i], p.Children[i+1:]...)
					break
				}
			}
		}
	}
	if len(t.Children) > 0 {
		return fmt.Errorf("cannot drop table %s because other objects depend on it", name)
	}
	delete(c.tables, k)
	for i, n := range c.order {
		if n == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for n, ix := range c.indexes {
		if key(ix.Table) == k {
			delete(c.indexes, n)
		}
	}
	return nil
}

// RenameTable renames a table and rewrites its indexes' table references.
func (c *Catalog) RenameTable(old, new string) error {
	ko, kn := key(old), key(new)
	t, ok := c.tables[ko]
	if !ok {
		return fmt.Errorf("no such table: %s", old)
	}
	if _, dup := c.tables[kn]; dup {
		return fmt.Errorf("table %s already exists", new)
	}
	c.invalidate()
	delete(c.tables, ko)
	t.Name = new
	c.tables[kn] = t
	for i, n := range c.order {
		if n == ko {
			c.order[i] = kn
		}
	}
	for _, ix := range c.indexes {
		if key(ix.Table) == ko {
			ix.Table = new
		}
	}
	return nil
}

// RenameColumn renames column ci of t, a table of this catalog, and
// rewrites the references to it in the table's index key parts and
// predicates. A double-quoted reference (MaybeString) that names the
// column resolves to it, so it is renamed too.
func (c *Catalog) RenameColumn(t *Table, ci int, name string) {
	c.invalidate()
	old := t.Columns[ci].Name
	t.Columns[ci].Name = name
	rename := func(x sqlast.Expr) bool {
		if cr, ok := x.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, old) {
			cr.Column = name
		}
		return true
	}
	kt := key(t.Name)
	for _, ix := range c.indexes {
		if key(ix.Table) != kt {
			continue
		}
		for _, p := range ix.Parts {
			sqlast.WalkExprs(p.X, rename)
		}
		if ix.Where != nil {
			sqlast.WalkExprs(ix.Where, rename)
		}
	}
}

// AddColumn appends a column to t, a table of this catalog.
func (c *Catalog) AddColumn(t *Table, col Column) {
	c.invalidate()
	t.Columns = append(t.Columns, col)
}

// TableNames lists tables (not views) in creation order. The slice is
// shared and read-only.
func (c *Catalog) TableNames() []string {
	if !c.namesOK {
		var out []string
		for _, k := range c.order {
			if t := c.tables[k]; !t.IsView {
				out = append(out, t.Name)
			}
		}
		c.names, c.namesOK = slices.Clip(out), true
	}
	return c.names
}

// ViewNames lists views in creation order.
func (c *Catalog) ViewNames() []string {
	var out []string
	for _, k := range c.order {
		if t := c.tables[k]; t.IsView {
			out = append(out, t.Name)
		}
	}
	return out
}

// Index resolves an index by name.
func (c *Catalog) Index(name string) (*Index, bool) {
	ix, ok := c.indexes[key(name)]
	return ix, ok
}

// AddIndex registers an index.
func (c *Catalog) AddIndex(ix *Index) error {
	k := key(ix.Name)
	if _, dup := c.indexes[k]; dup {
		return fmt.Errorf("index %s already exists", ix.Name)
	}
	if _, ok := c.Table(ix.Table); !ok {
		return fmt.Errorf("no such table: %s", ix.Table)
	}
	c.invalidate()
	c.indexes[k] = ix
	return nil
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(name string) error {
	k := key(name)
	if _, ok := c.indexes[k]; !ok {
		return fmt.Errorf("no such index: %s", name)
	}
	c.invalidate()
	delete(c.indexes, k)
	return nil
}

// IndexesOn returns the indexes of a table, sorted by name. The slice is
// shared and read-only.
func (c *Catalog) IndexesOn(table string) []*Index {
	if f := c.factsOf(table); f != nil {
		return f.indexes
	}
	return nil
}

// PartialIndexesOn returns the partial indexes of a table, sorted by name,
// with their predicate keys. The slice is shared and read-only.
func (c *Catalog) PartialIndexesOn(table string) []PartialIndex {
	if f := c.factsOf(table); f != nil {
		return f.partial
	}
	return nil
}

// Describe returns the introspection record of a table or view. Its
// Columns slice is shared and read-only.
func (c *Catalog) Describe(name string) (TableInfo, bool) {
	if f := c.factsOf(name); f != nil {
		return f.info, true
	}
	return TableInfo{}, false
}

// PredicateKey renders an expression without table qualifiers: two
// predicates with equal keys are the same predicate. A WHERE conjunct whose
// key equals a partial index's Key implies that index's predicate.
func (c *Catalog) PredicateKey(x sqlast.Expr) string {
	return string(sqlast.AppendPredicateKey(nil, x, c.d))
}

// factsOf returns a table's derived facts, building them on first use
// after a schema change; nil means no such table or view.
func (c *Catalog) factsOf(name string) *tableFacts {
	k := key(name)
	if f, ok := c.facts[k]; ok {
		return f
	}
	t, ok := c.tables[k]
	if !ok {
		return nil
	}
	f := &tableFacts{info: Describe(t)}
	for _, ix := range c.indexes {
		if key(ix.Table) == k {
			f.indexes = append(f.indexes, ix)
		}
	}
	sort.Slice(f.indexes, func(a, b int) bool { return f.indexes[a].Name < f.indexes[b].Name })
	for _, ix := range f.indexes {
		if ix.Where != nil {
			f.partial = append(f.partial, PartialIndex{Index: ix, Key: c.PredicateKey(ix.Where)})
		}
	}
	f.indexes, f.partial = slices.Clip(f.indexes), slices.Clip(f.partial)
	c.facts[k] = f
	return f
}

// IndexNames lists all indexes sorted by name.
func (c *Catalog) IndexNames() []string {
	var out []string
	for _, ix := range c.indexes {
		out = append(out, ix.Name)
	}
	sort.Strings(out)
	return out
}

// InheritanceLeaves returns t plus all (transitive) child tables, in
// declaration order — the scan set for a Postgres inherited table.
func (c *Catalog) InheritanceLeaves(t *Table) []*Table {
	out := []*Table{t}
	for _, ch := range t.Children {
		if child, ok := c.Table(ch); ok {
			out = append(out, c.InheritanceLeaves(child)...)
		}
	}
	return out
}

// ColumnInfo is the introspection record PQS reads (the analogue of a row
// of PRAGMA table_info / information_schema.columns).
type ColumnInfo struct {
	Name     string
	TypeName string
	Affinity string
	NotNull  bool
	PK       bool
	Unsigned bool
	Collate  string
}

// TableInfo is the introspection record for one table.
type TableInfo struct {
	Name         string
	Columns      []ColumnInfo
	WithoutRowid bool
	Engine       string
	Parent       string
	IsView       bool
}

// Describe produces the introspection snapshot for a table.
func Describe(t *Table) TableInfo {
	ti := TableInfo{
		Name:         t.Name,
		WithoutRowid: t.WithoutRowid,
		Engine:       t.Engine,
		Parent:       t.Parent,
		IsView:       t.IsView,
	}
	for _, col := range t.Columns {
		ti.Columns = append(ti.Columns, ColumnInfo{
			Name:     col.Name,
			TypeName: col.TypeName,
			Affinity: col.Affinity.String(),
			NotNull:  col.NotNull,
			PK:       col.PK,
			Unsigned: col.Unsigned,
			Collate:  col.Collate.String(),
		})
	}
	ti.Columns = slices.Clip(ti.Columns)
	return ti
}

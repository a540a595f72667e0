package engine

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/xerr"
)

var validEngines = map[string]bool{"INNODB": true, "MEMORY": true, "CSV": true, "MYISAM": true}

func (e *Engine) createTable(n *sqlast.CreateTable) (*Result, error) {
	if _, exists := e.cat.Table(n.Name); exists {
		if n.IfNotExists {
			return &Result{}, nil
		}
		return nil, xerr.New(xerr.CodeDuplicateObject, "table %s already exists", n.Name)
	}
	if len(n.Columns) == 0 {
		return nil, xerr.New(xerr.CodeSyntax, "table %s has no columns", n.Name)
	}
	if n.Engine != "" {
		if e.d != dialect.MySQL {
			return nil, xerr.New(xerr.CodeUnsupported, "ENGINE clause is MySQL-only")
		}
		if !validEngines[n.Engine] {
			return nil, xerr.New(xerr.CodeOption, "unknown storage engine %q", n.Engine)
		}
	}
	if n.WithoutRowid && e.d != dialect.SQLite {
		return nil, xerr.New(xerr.CodeUnsupported, "WITHOUT ROWID is SQLite-only")
	}
	if n.Inherits != "" && e.d != dialect.Postgres {
		return nil, xerr.New(xerr.CodeUnsupported, "INHERITS is PostgreSQL-only")
	}

	t := &schema.Table{
		Name:         n.Name,
		WithoutRowid: n.WithoutRowid,
		Engine:       n.Engine,
	}
	if e.d == dialect.MySQL && t.Engine == "" {
		t.Engine = "INNODB"
	}

	// Postgres inheritance: the child starts from the parent's columns
	// with constraints stripped (PK/UNIQUE are not inherited — the root
	// cause of Listing 15), then merges its own definitions.
	if n.Inherits != "" {
		parent, ok := e.cat.Table(n.Inherits)
		if !ok || parent.IsView {
			return nil, xerr.New(xerr.CodeNoObject, "no such table: %s", n.Inherits)
		}
		t.Parent = parent.Name
		for _, pc := range parent.Columns {
			c := pc
			c.PK = false
			c.Unique = false
			c.NotNull = false
			t.Columns = append(t.Columns, c)
		}
	}

	for _, cd := range n.Columns {
		col, err := e.buildColumn(cd)
		if err != nil {
			return nil, err
		}
		if idx := t.ColumnIndex(col.Name); idx >= 0 {
			// Inheritance merge: the child may restate the inherited
			// column but not change its type (PostgreSQL: "child table
			// has different type for column").
			if n.Inherits != "" && col.Affinity != t.Columns[idx].Affinity {
				return nil, xerr.New(xerr.CodeType,
					"child table %s has different type for column %q", n.Name, col.Name)
			}
			t.Columns[idx] = col
			continue
		}
		t.Columns = append(t.Columns, col)
	}
	for _, pk := range n.PrimaryKey {
		ci := t.ColumnIndex(pk)
		if ci < 0 {
			return nil, xerr.New(xerr.CodeNoObject, "no such column: %s", pk)
		}
		t.Columns[ci].PK = true
	}
	if n.WithoutRowid && len(t.PKColumns()) == 0 {
		return nil, xerr.New(xerr.CodeSyntax, "PRIMARY KEY missing on table %s", n.Name)
	}
	// PK implies NOT NULL except in SQLite rowid tables (a documented
	// SQLite quirk the paper's Listing 10 relies on).
	if e.d != dialect.SQLite || n.WithoutRowid {
		for _, ci := range t.PKColumns() {
			t.Columns[ci].NotNull = true
		}
	}

	if err := e.cat.AddTable(t); err != nil {
		return nil, xerr.New(xerr.CodeDuplicateObject, "%v", err)
	}
	if t.Parent != "" {
		parent, _ := e.cat.Table(t.Parent)
		parent.Children = append(parent.Children, t.Name)
	}
	e.data[lower(t.Name)] = e.newTableData()
	e.cov.hit("ddl.create-table")
	if n.WithoutRowid {
		e.cov.hit("ddl.without-rowid")
	}
	if t.Engine == "MEMORY" {
		e.cov.hit("ddl.engine-memory")
	}
	if t.Parent != "" {
		e.cov.hit("ddl.inherits")
	}
	return &Result{}, nil
}

func (e *Engine) buildColumn(cd sqlast.ColumnDef) (schema.Column, error) {
	col := schema.Column{
		Name:     cd.Name,
		TypeName: cd.TypeName,
		Unsigned: cd.Unsigned,
		NotNull:  cd.NotNull,
		Unique:   cd.Unique,
		PK:       cd.PrimaryKey,
		Default:  cd.Default,
		Check:    cd.Check,
	}
	if cd.Unsigned && !e.d.HasUnsigned() {
		return col, xerr.New(xerr.CodeUnsupported, "UNSIGNED is MySQL-only")
	}
	if cd.TypeName == "" && e.d != dialect.SQLite {
		return col, xerr.New(xerr.CodeSyntax, "column %s requires a type", cd.Name)
	}
	col.Affinity = sqlval.AffinityOf(cd.TypeName)
	if strings.EqualFold(cd.TypeName, "serial") {
		if e.d != dialect.Postgres {
			return col, xerr.New(xerr.CodeUnsupported, "serial is PostgreSQL-only")
		}
		col.Affinity = sqlval.AffInteger
		col.NotNull = true
	}
	if e.d == dialect.Postgres && strings.Contains(strings.ToUpper(cd.TypeName), "BOOL") {
		col.Affinity = sqlval.AffNumeric
	}
	if cd.Collate != "" {
		coll, ok := sqlval.ParseCollation(cd.Collate)
		if !ok {
			return col, xerr.New(xerr.CodeNoObject, "no such collation sequence: %s", cd.Collate)
		}
		col.Collate = coll
	}
	return col, nil
}

func (e *Engine) createIndex(n *sqlast.CreateIndex) (*Result, error) {
	if _, exists := e.cat.Index(n.Name); exists {
		if n.IfNotExists {
			return &Result{}, nil
		}
		return nil, xerr.New(xerr.CodeDuplicateObject, "index %s already exists", n.Name)
	}
	t, td, err := e.table(n.Table)
	if err != nil {
		return nil, err
	}
	ix := &schema.Index{
		Name:                   n.Name,
		Table:                  t.Name,
		Unique:                 n.Unique,
		Where:                  n.Where,
		BuildSeq:               e.seq,
		BuildCaseSensitiveLike: e.caseSensitiveLike,
	}
	var colls []sqlval.Collation
	var descs []bool
	for _, p := range n.Parts {
		part := schema.IndexPart{X: p.X, Desc: p.Desc}
		coll := sqlval.CollBinary
		if p.Collate != "" {
			c, ok := sqlval.ParseCollation(p.Collate)
			if !ok {
				return nil, xerr.New(xerr.CodeNoObject, "no such collation sequence: %s", p.Collate)
			}
			coll = c
			part.HasColl = true
		} else if cr, ok := p.X.(*sqlast.ColumnRef); ok && !cr.MaybeString {
			if ci := t.ColumnIndex(cr.Column); ci >= 0 {
				coll = t.Columns[ci].Collate
			}
		}
		part.Collate = coll
		ix.Parts = append(ix.Parts, part)
		colls = append(colls, coll)
		descs = append(descs, p.Desc)

		// Column references inside index expressions must resolve (the
		// SQLite double-quote misfeature exempts MaybeString refs).
		bad := ""
		sqlast.WalkExprs(p.X, func(x sqlast.Expr) bool {
			if cr, ok := x.(*sqlast.ColumnRef); ok && !cr.MaybeString {
				if t.ColumnIndex(cr.Column) < 0 {
					bad = cr.Column
				}
			}
			return true
		})
		if bad != "" {
			return nil, xerr.New(xerr.CodeNoObject, "no such column: %s", bad)
		}

		// Fault site (postgres.strict-cast-crash): the planner crashes
		// compiling an index expression containing a CAST.
		if e.d == dialect.Postgres && e.fs.Has(faults.StrictCastCrash) {
			sqlast.WalkExprs(p.X, func(x sqlast.Expr) bool {
				if _, ok := x.(*sqlast.Cast); ok {
					panic(crashPanic{site: "pg_index_expr_compile"})
				}
				return true
			})
		}
	}

	// Fault sites (sqlite.collate-index-order, sqlite.rtrim-compare): the
	// index is physically built in BINARY order even though the schema
	// declares NOCASE/RTRIM, so collation-aware lookups miss entries.
	buildColls := append([]sqlval.Collation(nil), colls...)
	if e.d == dialect.SQLite {
		for i, c := range buildColls {
			if c == sqlval.CollNoCase && e.fs.Has(faults.CollateIndexOrder) {
				buildColls[i] = sqlval.CollBinary
			}
			if c == sqlval.CollRTrim && e.fs.Has(faults.RtrimCompare) {
				buildColls[i] = sqlval.CollBinary
			}
		}
	}
	ixd := e.newIndexData(buildColls, descs)

	// Populate from existing rows, enforcing uniqueness.
	for _, r := range td.Rows() {
		key, include, err := e.indexKey(ix, t, r.Vals)
		if err != nil {
			return nil, err
		}
		if !include {
			continue
		}
		// Fault site (sqlite.nocase-unique-index, Listing 4): building a
		// NOCASE index over a WITHOUT ROWID table's PK dedups case-variant
		// keys — only the first variant gets an entry.
		if e.nocaseIndexDrops(t, ix, key, ixd) {
			continue
		}
		if ix.Unique && !allNull(key) && len(ixd.Equal(key)) > 0 {
			return nil, xerr.New(xerr.CodeUnique, "UNIQUE constraint failed: index %s", ix.Name)
		}
		ixd.Insert(key, r.Rowid)
	}

	if err := e.cat.AddIndex(ix); err != nil {
		return nil, xerr.New(xerr.CodeDuplicateObject, "%v", err)
	}
	e.idx[lower(ix.Name)] = ixd
	e.cov.hit("ddl.create-index")
	if ix.Where != nil {
		e.cov.hit("ddl.partial-index")
	}
	return &Result{}, nil
}

// nocaseIndexDrops is the shared trigger of the sqlite.nocase-unique-index
// fault (Listing 4): wherever entries are added — CREATE INDEX, REINDEX, or
// INSERT — a NOCASE index over a WITHOUT ROWID table's PK silently dedups
// case-variant text keys.
func (e *Engine) nocaseIndexDrops(t *schema.Table, ix *schema.Index, key []sqlval.Value, ixd *storage.IndexData) bool {
	return e.d == dialect.SQLite && e.fs.Has(faults.NocaseUniqueIndex) && t.WithoutRowid &&
		pkIsNocaseText(t, ix, key) && len(ixd.Equal(key)) > 0
}

// indexKey computes a row's key for an index; include=false means a partial
// index excludes the row.
func (e *Engine) indexKey(ix *schema.Index, t *schema.Table, vals []sqlval.Value) ([]sqlval.Value, bool, error) {
	lay, f := e.scope.bind(t, vals)
	if ix.Where != nil {
		tb, err := e.ev.EvalBool(ix.Where, lay, f)
		if err != nil {
			return nil, false, err
		}
		// Fault site (postgres.bool-index-scan): membership in a partial
		// boolean index is decided with inverted polarity, so the index
		// holds exactly the rows the predicate excludes.
		if e.d == dialect.Postgres && e.fs.Has(faults.BoolIndexScan) {
			if tb == sqlval.TriTrue {
				return nil, false, nil
			}
		} else if tb != sqlval.TriTrue {
			return nil, false, nil
		}
	}
	key := make([]sqlval.Value, len(ix.Parts))
	for i, p := range ix.Parts {
		v, err := e.ev.Eval(p.X, lay, f)
		if err != nil {
			return nil, false, err
		}
		key[i] = v
	}
	return key, true, nil
}

func allNull(key []sqlval.Value) bool {
	for _, v := range key {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

func (e *Engine) createView(n *sqlast.CreateView) (*Result, error) {
	if _, exists := e.cat.Table(n.Name); exists {
		if n.IfNotExists {
			return &Result{}, nil
		}
		return nil, xerr.New(xerr.CodeDuplicateObject, "view %s already exists", n.Name)
	}
	// Validate the definition by running it once.
	res, err := e.execSelect(n.Select)
	if err != nil {
		return nil, err
	}
	t := &schema.Table{Name: n.Name, IsView: true, ViewDef: n.Select}
	colls := e.viewCollations(n.Select)
	for i, name := range res.Columns {
		cn := name
		if cn == "" || cn == "*" {
			cn = "c" + itoa(i)
		}
		col := schema.Column{Name: cn, Affinity: sqlval.AffBlob}
		if i < len(colls) {
			col.Collate = colls[i]
		}
		t.Columns = append(t.Columns, col)
	}
	if err := e.cat.AddTable(t); err != nil {
		return nil, xerr.New(xerr.CodeDuplicateObject, "%v", err)
	}
	e.cov.hit("ddl.create-view")
	return &Result{}, nil
}

// viewCollations is the collation of each column a view's SELECT
// produces, the way the same comparison on the source sees it: a COLLATE
// item's own, a column reference's source column's, every source column's
// under a star, and the default for any other expression.
func (e *Engine) viewCollations(sel *sqlast.Select) []sqlval.Collation {
	refs := slices.Clone(sel.From)
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
	}
	var out []sqlval.Collation
	for _, rc := range sel.Cols {
		if rc.Star {
			for _, tr := range refs {
				if t, ok := e.cat.Table(tr.Name); ok {
					for _, c := range t.Columns {
						out = append(out, c.Collate)
					}
				}
			}
			continue
		}
		var coll sqlval.Collation
		switch x := rc.X.(type) {
		case *sqlast.Collate:
			coll = x.Coll
		case *sqlast.ColumnRef:
			for _, tr := range refs {
				t, ok := e.cat.Table(tr.Name)
				if !ok || x.Table != "" && !strings.EqualFold(x.Table, cmp.Or(tr.Alias, tr.Name)) {
					continue
				}
				if ci := t.ColumnIndex(x.Column); ci >= 0 {
					coll = t.Columns[ci].Collate
					break
				}
			}
		}
		out = append(out, coll)
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func (e *Engine) createStats(n *sqlast.CreateStats) (*Result, error) {
	if e.d != dialect.Postgres {
		return nil, xerr.New(xerr.CodeUnsupported, "CREATE STATISTICS is PostgreSQL-only")
	}
	t, _, err := e.table(n.Table)
	if err != nil {
		return nil, err
	}
	for _, c := range n.Columns {
		if t.ColumnIndex(c) < 0 {
			return nil, xerr.New(xerr.CodeNoObject, "column %q does not exist", c)
		}
	}
	e.tableState(t.Name).hasStats = true
	e.cov.hit("ddl.create-stats")
	return &Result{}, nil
}

func (e *Engine) alterTable(n *sqlast.AlterTable) (*Result, error) {
	t, _, err := e.table(n.Table)
	if err != nil {
		return nil, err
	}
	switch n.Action {
	case sqlast.AlterRenameTable:
		if err := e.cat.RenameTable(n.Table, n.NewName); err != nil {
			return nil, xerr.New(xerr.CodeDuplicateObject, "%v", err)
		}
		e.data[lower(n.NewName)] = e.data[lower(n.Table)]
		delete(e.data, lower(n.Table))
		if st, ok := e.state[lower(n.Table)]; ok {
			e.state[lower(n.NewName)] = st
			delete(e.state, lower(n.Table))
		}
		e.cov.hit("ddl.rename-table")
		return &Result{}, nil
	case sqlast.AlterRenameColumn:
		ci := t.ColumnIndex(n.OldName)
		if ci < 0 {
			return nil, xerr.New(xerr.CodeNoObject, "no such column: %s", n.OldName)
		}
		if t.ColumnIndex(n.NewName) >= 0 {
			return nil, xerr.New(xerr.CodeDuplicateObject, "duplicate column name: %s", n.NewName)
		}
		st := e.tableState(t.Name)
		st.renamedColumn = true
		// Fault site (sqlite.double-quote-index, Listing 8): a
		// double-quoted string part now matches the renamed column and
		// hijacks its projection.
		if e.d == dialect.SQLite && e.fs.Has(faults.DoubleQuoteIndex) {
			for _, ix := range e.cat.IndexesOn(t.Name) {
				for _, p := range ix.Parts {
					if cr, ok := p.X.(*sqlast.ColumnRef); ok && cr.MaybeString && strings.EqualFold(cr.Column, n.NewName) {
						st.dqHijackCol = ci
						st.dqHijackVal = cr.Column
					}
				}
			}
		}
		e.cat.RenameColumn(t, ci, n.NewName)
		e.cov.hit("ddl.rename-column")
		return &Result{}, nil
	case sqlast.AlterAddColumn:
		if t.ColumnIndex(n.Column.Name) >= 0 {
			return nil, xerr.New(xerr.CodeDuplicateObject, "duplicate column name: %s", n.Column.Name)
		}
		col, err := e.buildColumn(n.Column)
		if err != nil {
			return nil, err
		}
		if col.NotNull && col.Default == nil && e.data[lower(t.Name)].Len() > 0 {
			return nil, xerr.New(xerr.CodeNotNull, "cannot add NOT NULL column without default to non-empty table")
		}
		def := sqlval.Null()
		if col.Default != nil {
			v, err := e.constEval(col.Default)
			if err != nil {
				return nil, err
			}
			def = sqlval.ApplyAffinity(v, col.Affinity)
		}
		e.cat.AddColumn(t, col)
		e.data[lower(t.Name)].AddColumn(def)
		e.cov.hit("ddl.add-column")
		return &Result{}, nil
	}
	return nil, xerr.New(xerr.CodeUnsupported, "unsupported ALTER TABLE")
}

func (e *Engine) drop(n *sqlast.Drop) (*Result, error) {
	switch n.Obj {
	case sqlast.DropTable, sqlast.DropView:
		t, ok := e.cat.Table(n.Name)
		if !ok || (n.Obj == sqlast.DropView) != t.IsView {
			if n.IfExists {
				return &Result{}, nil
			}
			return nil, xerr.New(xerr.CodeNoObject, "no such table: %s", n.Name)
		}
		for _, ix := range e.cat.IndexesOn(t.Name) {
			delete(e.idx, lower(ix.Name))
		}
		if err := e.cat.DropTable(n.Name); err != nil {
			return nil, xerr.New(xerr.CodeBusy, "%v", err)
		}
		delete(e.data, lower(n.Name))
		delete(e.state, lower(n.Name))
		e.cov.hit("ddl.drop-table")
		return &Result{}, nil
	case sqlast.DropIndex:
		if _, ok := e.cat.Index(n.Name); !ok {
			if n.IfExists {
				return &Result{}, nil
			}
			return nil, xerr.New(xerr.CodeNoObject, "no such index: %s", n.Name)
		}
		if err := e.cat.DropIndex(n.Name); err != nil {
			return nil, xerr.New(xerr.CodeNoObject, "%v", err)
		}
		delete(e.idx, lower(n.Name))
		e.cov.hit("ddl.drop-index")
		return &Result{}, nil
	}
	return nil, xerr.New(xerr.CodeUnsupported, "unsupported DROP")
}

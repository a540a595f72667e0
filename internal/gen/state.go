package gen

import (
	"fmt"

	"repro/internal/dialect"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// Introspector is the catalog/ground-truth surface StateGen consults. It
// is a consumer-side slice of sut.Introspection; both *engine.Engine and
// any sut.DB's Introspect() satisfy it.
type Introspector interface {
	Tables() []string
	Describe(name string) (schema.TableInfo, error)
	RawRows(table string) [][]sqlval.Value
	RowCount(table string) int
}

// StateGen generates random database state (step 1 of Figure 1): tables,
// rows, indexes, views, options, and maintenance statements. Statements
// are handed to an apply callback one at a time; the caller executes them
// and runs the error oracle. The generator re-introspects the database
// after DDL rather than tracking state itself (§3.4 of the paper).
//
// A StateGen is reused through Reset, which keeps its memory: the DML and
// session-read nodes it generates come from its arena, and, like the
// session scripts, live until the next Reset. DDL nodes (CREATE TABLE,
// CREATE INDEX, CREATE VIEW, options) stay on the heap, since the
// engine's catalog keeps them for the life of the database.
type StateGen struct {
	Rnd *Rand
	E   Introspector
	// MinRows/MaxRows bound the per-table row count (paper: 10–30 rows;
	// campaigns default lower for throughput, the ablation bench sweeps it).
	MinRows, MaxRows int
	// MaxTables bounds the table count per database.
	MaxTables int
	// Hints accumulates inserted values for constant-biasing.
	Hints []sqlval.Value

	tableSeq int
	indexSeq int
	viewSeq  int
	statSeq  int

	nodes sqlast.Arena
	// Reused scratch: insertInto's column subset, its WITHOUT ROWID
	// primary-key values per column, caseVariantOf's value pool, and the
	// session scripts.
	cols    []schema.ColumnInfo
	batch   map[string][]sqlval.Value
	pool    []sqlval.Value
	scripts [][]sqlast.Stmt
}

// Reset readies the generator for a new database (or a new check on one)
// introspected through intro, starting from a copy of hints, and keeps
// its memory and row/table bounds. Every statement it generated before
// becomes invalid. A generator reset this way draws exactly what a new
// one with the same fields would.
func (sg *StateGen) Reset(rnd *Rand, intro Introspector, hints []sqlval.Value) {
	sg.Rnd, sg.E = rnd, intro
	sg.Hints = append(sg.Hints[:0], hints...)
	sg.tableSeq, sg.indexSeq, sg.viewSeq, sg.statSeq = 0, 0, 0, 0
	sg.nodes.Reset()
}

// Apply executes one generated statement. It returns a non-nil error only
// to abort generation (an oracle detection); expected statement errors are
// swallowed by the callback.
type Apply func(sqlast.Stmt) error

// BuildDatabase generates and applies a full random database.
func (sg *StateGen) BuildDatabase(apply Apply) error {
	if sg.MaxTables <= 0 {
		sg.MaxTables = 3
	}
	if sg.MaxRows <= 0 {
		sg.MaxRows = 8
	}
	if sg.MinRows <= 0 {
		sg.MinRows = 1
	}
	nTables := 1 + sg.Rnd.Intn(sg.MaxTables)
	for i := 0; i < nTables; i++ {
		if err := sg.createTableWithRows(apply); err != nil {
			return err
		}
	}
	// Extra statements exploring a larger space of databases.
	extras := 2 + sg.Rnd.Intn(8)
	for i := 0; i < extras; i++ {
		if err := sg.randomExtra(apply); err != nil {
			return err
		}
	}
	// Every table must hold at least one row (§3.1). Retries are bounded:
	// a table whose inserts keep failing (e.g. a strict-typing dead end)
	// is left empty and simply never becomes a pivot source.
	for _, tn := range sg.E.Tables() {
		for attempt := 0; attempt < 10 && sg.E.RowCount(tn) == 0; attempt++ {
			if err := sg.insertInto(apply, tn, 1+sg.Rnd.Intn(2)); err != nil {
				return err
			}
		}
	}
	return nil
}

func intColumns(info schema.TableInfo) []string {
	var out []string
	for _, c := range info.Columns {
		if CategoryOfType(c.TypeName) == CatInt {
			out = append(out, c.Name)
		}
	}
	return out
}

func (sg *StateGen) createTableWithRows(apply Apply) error {
	name := fmt.Sprintf("t%d", sg.tableSeq)
	sg.tableSeq++
	ct := sg.genCreateTable(name)
	if err := apply(ct); err != nil {
		return err
	}
	if _, err := sg.E.Describe(name); err != nil {
		return nil // creation failed with an expected error; skip rows
	}
	rows := sg.MinRows + sg.Rnd.Intn(sg.MaxRows-sg.MinRows+1)
	return sg.insertInto(apply, name, rows)
}

func (sg *StateGen) genCreateTable(name string) *sqlast.CreateTable {
	ct := &sqlast.CreateTable{Name: name}
	d := sg.Rnd.D
	nCols := 1 + sg.Rnd.Intn(4)
	ct.Columns = make([]sqlast.ColumnDef, 0, nCols)
	pkUsed := false
	for i := 0; i < nCols; i++ {
		cd := sqlast.ColumnDef{Name: fmt.Sprintf("c%d", i)}
		switch d {
		case dialect.SQLite:
			types := []string{"", "", "INT", "TEXT", "REAL", "BLOB", "NUMERIC"}
			cd.TypeName = types[sg.Rnd.Intn(len(types))]
			if sg.Rnd.Bool(0.25) {
				colls := []string{"NOCASE", "RTRIM", "BINARY"}
				cd.Collate = colls[sg.Rnd.Intn(len(colls))]
			}
		case dialect.MySQL:
			types := []string{"INT", "TINYINT", "TEXT", "REAL", "BIGINT"}
			cd.TypeName = types[sg.Rnd.Intn(len(types))]
			if (cd.TypeName == "INT" || cd.TypeName == "BIGINT" || cd.TypeName == "TINYINT") && sg.Rnd.Bool(0.25) {
				cd.Unsigned = true
			}
		default:
			types := []string{"INT", "TEXT", "REAL", "BOOLEAN", "serial"}
			cd.TypeName = types[sg.Rnd.Intn(len(types))]
		}
		if !pkUsed && sg.Rnd.Bool(0.2) {
			cd.PrimaryKey = true
			pkUsed = true
		} else {
			if sg.Rnd.Bool(0.15) {
				cd.Unique = true
			}
			if sg.Rnd.Bool(0.08) {
				cd.NotNull = true
			}
		}
		ct.Columns = append(ct.Columns, cd)
	}
	switch d {
	case dialect.SQLite:
		if !pkUsed && len(ct.Columns) >= 2 && sg.Rnd.Bool(0.15) {
			ct.PrimaryKey = []string{ct.Columns[0].Name, ct.Columns[1].Name}
			pkUsed = true
		}
		if pkUsed && sg.Rnd.Bool(0.35) {
			ct.WithoutRowid = true
		}
	case dialect.MySQL:
		if sg.Rnd.Bool(0.3) {
			engines := []string{"MEMORY", "MYISAM", "INNODB"}
			ct.Engine = engines[sg.Rnd.Intn(len(engines))]
		}
	default:
		if tables := sg.E.Tables(); len(tables) > 0 && sg.Rnd.Bool(0.3) {
			ct.Inherits = tables[sg.Rnd.Intn(len(tables))]
		}
	}
	return ct
}

func (sg *StateGen) insertInto(apply Apply, table string, rows int) error {
	info, err := sg.E.Describe(table)
	if err != nil || info.IsView {
		return nil
	}
	ins := sg.nodes.Insert()
	ins.Table = table
	// Usually name a random subset of columns (paper listings often
	// insert into a subset).
	cols := sg.cols[:0]
	if sg.Rnd.Bool(0.75) {
		for _, c := range info.Columns {
			if sg.Rnd.Bool(0.75) {
				cols = append(cols, c)
			}
		}
	}
	sg.cols = cols
	if len(cols) > 0 {
		ins.Columns = sg.nodes.Strings(len(cols))
		for i, c := range cols {
			ins.Columns[i] = c.Name
		}
	} else {
		cols = info.Columns
	}
	// batch holds this statement's values of each WITHOUT ROWID PK column,
	// the only ones caseVariantOf draws from; emptied per statement.
	keepBatch := sg.Rnd.D == dialect.SQLite && info.WithoutRowid
	if keepBatch {
		for k, v := range sg.batch {
			sg.batch[k] = v[:0]
		}
	}
	ins.Rows = sg.nodes.Rows(rows)
	for r := range ins.Rows {
		row := sg.nodes.Exprs(len(cols))
		for i, c := range cols {
			var v sqlval.Value
			switch {
			case sg.Rnd.D == dialect.Postgres:
				v = sg.Rnd.ValueOfCategory(CategoryOfType(c.TypeName))
			case sg.Rnd.D == dialect.SQLite && c.PK && info.WithoutRowid && sg.Rnd.Bool(0.5):
				// Listing 4's data shape: a case-toggled variant of an
				// existing PK value — BINARY-distinct (so the PK admits it)
				// but NOCASE-equal (so a collated PK index dedups it).
				v = sg.caseVariantOf(table, info, c.Name, sg.batch[c.Name])
			case sg.Rnd.D == dialect.SQLite && len(sg.Hints) > 0 && sg.Rnd.Bool(0.2):
				// Re-insert a case-toggled variant of stored text:
				// NOCASE-equal but BINARY-distinct pairs are the data shape
				// behind the collated-index bug class (Listings 4 and 5).
				h := sg.Hints[sg.Rnd.Intn(len(sg.Hints))]
				if h.Kind() == sqlval.KText {
					v = sqlval.Text(ToggleCase(h.Str()))
				} else {
					v = sg.Rnd.Value()
				}
			default:
				v = sg.Rnd.Value()
			}
			sg.Hints = append(sg.Hints, v)
			if keepBatch && c.PK {
				if sg.batch == nil {
					sg.batch = map[string][]sqlval.Value{}
				}
				sg.batch[c.Name] = append(sg.batch[c.Name], v)
			}
			row[i] = sg.nodes.Lit(v)
		}
		ins.Rows[r] = row
	}
	switch {
	case sg.Rnd.Bool(0.2):
		ins.Conflict = sqlast.ConflictIgnore
	case sg.Rnd.D != dialect.Postgres && sg.Rnd.Bool(0.12):
		ins.Conflict = sqlast.ConflictReplace
	}
	return apply(ins)
}

// caseVariantOf draws a case-toggled variant of a value already present in
// the named column — stored rows or earlier rows of the same INSERT batch —
// falling back to interesting text (letters toggle; digits do not).
func (sg *StateGen) caseVariantOf(table string, info schema.TableInfo, column string, batch []sqlval.Value) sqlval.Value {
	pool := sg.pool[:0]
	ci := -1
	for i := range info.Columns {
		if info.Columns[i].Name == column {
			ci = i
			break
		}
	}
	if ci >= 0 {
		for _, r := range sg.E.RawRows(table) {
			if ci < len(r) {
				pool = append(pool, r[ci])
			}
		}
	}
	pool = append(pool, batch...)
	sg.pool = pool
	for tries := 0; tries < 4 && len(pool) > 0; tries++ {
		v := pool[sg.Rnd.Intn(len(pool))]
		if v.Kind() == sqlval.KText {
			return sqlval.Text(ToggleCase(v.Str()))
		}
	}
	texts := []string{"a", "B", "abc", "u"}
	return sqlval.Text(texts[sg.Rnd.Intn(len(texts))])
}

// RandomDML generates and applies one data-mutating statement (INSERT,
// UPDATE, or DELETE, insert-biased) against a random existing table. The
// recovery-equivalence oracle uses it to grow committed state between
// crash points without touching the schema. A no-op when the database
// has no tables.
func (sg *StateGen) RandomDML(apply Apply) error {
	tables := sg.E.Tables()
	if len(tables) == 0 {
		return nil
	}
	table := tables[sg.Rnd.Intn(len(tables))]
	switch sg.Rnd.Intn(6) {
	case 0:
		return sg.genUpdate(apply, table)
	case 1:
		return sg.genDelete(apply, table)
	default:
		return sg.insertInto(apply, table, 1+sg.Rnd.Intn(3))
	}
}

// randomExtra emits one exploratory statement.
func (sg *StateGen) randomExtra(apply Apply) error {
	tables := sg.E.Tables()
	if len(tables) == 0 {
		return nil
	}
	table := tables[sg.Rnd.Intn(len(tables))]
	d := sg.Rnd.D
	switch sg.Rnd.Intn(12) {
	case 0, 1, 2:
		return apply(sg.genCreateIndex(table))
	case 3:
		return sg.insertInto(apply, table, 1+sg.Rnd.Intn(3))
	case 4:
		return sg.genUpdate(apply, table)
	case 5:
		if sg.Rnd.Bool(0.4) {
			return sg.genDelete(apply, table)
		}
		return nil
	case 6:
		return apply(&sqlast.Maintenance{Op: sqlast.MaintAnalyze, Table: maybeTable(sg.Rnd, table)})
	case 7:
		switch d {
		case dialect.SQLite:
			if sg.Rnd.Bool(0.5) {
				return apply(&sqlast.Maintenance{Op: sqlast.MaintReindex, Table: maybeTable(sg.Rnd, table)})
			}
			return apply(&sqlast.Maintenance{Op: sqlast.MaintVacuum})
		case dialect.MySQL:
			ops := []sqlast.MaintKind{sqlast.MaintRepairTable, sqlast.MaintCheckTable, sqlast.MaintCheckTableForUpgrade}
			return apply(&sqlast.Maintenance{Op: ops[sg.Rnd.Intn(len(ops))], Table: table})
		default:
			if sg.Rnd.Bool(0.5) {
				return apply(&sqlast.Maintenance{Op: sqlast.MaintVacuumFull})
			}
			return apply(&sqlast.Maintenance{Op: sqlast.MaintDiscard})
		}
	case 8:
		return sg.genOption(apply)
	case 9:
		return sg.genAlter(apply, table)
	case 10:
		if d == dialect.Postgres {
			return sg.genStats(apply, table)
		}
		if d == dialect.SQLite && sg.Rnd.Bool(0.4) {
			return sg.genView(apply, table)
		}
		return nil
	default:
		return apply(sg.genCreateIndex(table))
	}
}

func maybeTable(rnd *Rand, table string) string {
	if rnd.Bool(0.6) {
		return table
	}
	return ""
}

func (sg *StateGen) genCreateIndex(table string) *sqlast.CreateIndex {
	info, err := sg.E.Describe(table)
	ci := &sqlast.CreateIndex{
		Name:        fmt.Sprintf("i%d", sg.indexSeq),
		Table:       table,
		Unique:      sg.Rnd.Bool(0.22),
		IfNotExists: true,
	}
	sg.indexSeq++
	if err != nil || len(info.Columns) == 0 {
		return ci
	}
	nParts := 1
	if sg.Rnd.Bool(0.3) {
		nParts = 2
	}
	// Listing 4 shape: a collated index whose leading part is a WITHOUT
	// ROWID table's PK column feeds the planner's point-lookup path.
	if sg.Rnd.D == dialect.SQLite && info.WithoutRowid && sg.Rnd.Bool(0.55) {
		for _, c := range info.Columns {
			if c.PK {
				part := sqlast.IndexedExpr{X: sqlast.Col("", c.Name), Collate: "NOCASE"}
				ci.Parts = append(ci.Parts, part)
				return ci
			}
		}
	}
	for p := 0; p < nParts; p++ {
		col := info.Columns[sg.Rnd.Intn(len(info.Columns))]
		// Collated columns are the interesting index targets: their
		// comparisons go through collation-aware planner paths.
		if sg.Rnd.D == dialect.SQLite && sg.Rnd.Bool(0.5) {
			var collated []schema.ColumnInfo
			for _, c := range info.Columns {
				if c.Collate != "" && c.Collate != "BINARY" {
					collated = append(collated, c)
				}
			}
			if len(collated) > 0 {
				col = collated[sg.Rnd.Intn(len(collated))]
			}
		}
		var part sqlast.IndexedExpr
		switch {
		case sg.Rnd.Bool(0.6): // bare column
			part.X = sqlast.Col("", col.Name)
		case sg.Rnd.D == dialect.SQLite && sg.Rnd.Bool(0.4):
			// Listing 1 (literal part) / Listing 8 (double-quoted string)
			// / Listing 9 (LIKE expression) shapes.
			switch sg.Rnd.Intn(4) {
			case 0:
				part.X = sqlast.Lit(sqlval.Int(1))
			case 1, 2:
				part.X = &sqlast.ColumnRef{Column: "C3", MaybeString: true}
			default:
				part.X = &sqlast.Binary{Op: sqlast.OpLike, L: sqlast.Col("", col.Name), R: sqlast.Lit(sqlval.Text(""))}
			}
		default: // expression part (typed for the strict Postgres profile)
			switch {
			case sg.Rnd.D == dialect.Postgres && sg.Rnd.Bool(0.3):
				part.X = &sqlast.Cast{X: sqlast.Col("", col.Name), TypeName: "TEXT"}
			case sg.Rnd.D == dialect.Postgres:
				// Boolean AND-expression (the Listing 16 shape) only
				// over boolean columns; integer arithmetic only over
				// integer columns; otherwise fall back to a bare column.
				if bools := boolColumns(info); len(bools) > 0 && sg.Rnd.Bool(0.5) {
					bc := bools[sg.Rnd.Intn(len(bools))]
					part.X = &sqlast.Binary{Op: sqlast.OpAnd,
						L: sqlast.Col(table, bc), R: sqlast.Col(table, bc)}
				} else if ints := intColumns(info); len(ints) > 0 {
					part.X = &sqlast.Binary{Op: sqlast.OpAdd,
						L: sqlast.Lit(sqlval.Int(1)), R: sqlast.Col(table, ints[sg.Rnd.Intn(len(ints))])}
				} else {
					part.X = sqlast.Col("", col.Name)
				}
			default:
				part.X = &sqlast.Binary{Op: sqlast.OpAdd,
					L: sqlast.Lit(sqlval.Int(1)), R: sqlast.Col(table, col.Name)}
			}
		}
		if sg.Rnd.D == dialect.SQLite && sg.Rnd.Bool(0.3) {
			colls := []string{"NOCASE", "RTRIM", "BINARY"}
			part.Collate = colls[sg.Rnd.Intn(len(colls))]
		}
		part.Desc = sg.Rnd.Bool(0.15)
		ci.Parts = append(ci.Parts, part)
	}
	// Partial index predicates — `c NOT NULL` is the Listing 1 shape.
	if sg.Rnd.D == dialect.SQLite && sg.Rnd.Bool(0.3) {
		col := info.Columns[sg.Rnd.Intn(len(info.Columns))]
		if sg.Rnd.Bool(0.7) {
			ci.Where = &sqlast.Unary{Op: sqlast.OpNotNull, X: sqlast.Col("", col.Name)}
		} else {
			ci.Where = &sqlast.Binary{Op: sqlast.OpGt, L: sqlast.Col("", col.Name), R: sqlast.Lit(sqlval.Int(0))}
		}
	}
	if sg.Rnd.D == dialect.Postgres && sg.Rnd.Bool(0.2) {
		bools := boolColumns(info)
		if len(bools) > 0 {
			ci.Where = sqlast.Col("", bools[sg.Rnd.Intn(len(bools))])
		}
	}
	return ci
}

func boolColumns(info schema.TableInfo) []string {
	var out []string
	for _, c := range info.Columns {
		if CategoryOfType(c.TypeName) == CatBool {
			out = append(out, c.Name)
		}
	}
	return out
}

func (sg *StateGen) genUpdate(apply Apply, table string) error {
	info, err := sg.E.Describe(table)
	if err != nil || len(info.Columns) == 0 {
		return nil
	}
	up := sg.nodes.Update()
	up.Table = table
	col := info.Columns[sg.Rnd.Intn(len(info.Columns))]
	var v sqlval.Value
	if sg.Rnd.D == dialect.Postgres {
		v = sg.Rnd.ValueOfCategory(CategoryOfType(col.TypeName))
	} else {
		v = sg.Rnd.Value()
	}
	sg.Hints = append(sg.Hints, v)
	up.Sets = sg.nodes.Assignments(1)
	up.Sets[0] = sqlast.Assignment{Column: col.Name, Value: sg.nodes.Lit(v)}
	if sg.Rnd.Bool(0.4) {
		wcol := info.Columns[sg.Rnd.Intn(len(info.Columns))]
		if sg.Rnd.D == dialect.Postgres {
			up.Where = sg.nodes.Unary(sqlast.OpNotNull, sg.nodes.Col("", wcol.Name))
		} else {
			up.Where = sg.nodes.Binary(sqlast.OpEq, sg.nodes.Col("", wcol.Name), sg.nodes.Lit(sg.Rnd.Value()))
		}
	}
	if sg.Rnd.D == dialect.SQLite && sg.Rnd.Bool(0.25) {
		up.Conflict = sqlast.ConflictReplace
	}
	return apply(up)
}

func (sg *StateGen) genDelete(apply Apply, table string) error {
	info, err := sg.E.Describe(table)
	if err != nil || len(info.Columns) == 0 {
		return nil
	}
	col := info.Columns[sg.Rnd.Intn(len(info.Columns))]
	del := sg.nodes.Delete()
	del.Table = table
	del.Where = sg.nodes.Unary(sqlast.OpIsNull, sg.nodes.Col("", col.Name))
	return apply(del)
}

func (sg *StateGen) genAlter(apply Apply, table string) error {
	info, err := sg.E.Describe(table)
	if err != nil || len(info.Columns) == 0 {
		return nil
	}
	switch sg.Rnd.Intn(3) {
	case 0: // rename column — "c3" is the Listing 8 coincidence target
		old := info.Columns[sg.Rnd.Intn(len(info.Columns))].Name
		newName := fmt.Sprintf("r%d", sg.Rnd.Intn(100))
		if sg.Rnd.Bool(0.5) {
			newName = "c3"
		}
		return apply(&sqlast.AlterTable{Table: table, Action: sqlast.AlterRenameColumn, OldName: old, NewName: newName})
	case 1: // add column
		cd := sqlast.ColumnDef{Name: fmt.Sprintf("a%d", sg.Rnd.Intn(100)), TypeName: "INT"}
		if sg.Rnd.D == dialect.SQLite {
			cd.TypeName = ""
		}
		return apply(&sqlast.AlterTable{Table: table, Action: sqlast.AlterAddColumn, Column: cd})
	default:
		return nil // rename table disturbs too much downstream generation
	}
}

func (sg *StateGen) genStats(apply Apply, table string) error {
	info, err := sg.E.Describe(table)
	if err != nil || len(info.Columns) == 0 {
		return nil
	}
	cs := &sqlast.CreateStats{Name: fmt.Sprintf("s%d", sg.statSeq), Table: table}
	sg.statSeq++
	for _, c := range info.Columns {
		if sg.Rnd.Bool(0.6) {
			cs.Columns = append(cs.Columns, c.Name)
		}
	}
	if len(cs.Columns) == 0 {
		cs.Columns = []string{info.Columns[0].Name}
	}
	return apply(cs)
}

func (sg *StateGen) genView(apply Apply, table string) error {
	info, err := sg.E.Describe(table)
	if err != nil || len(info.Columns) == 0 {
		return nil
	}
	cv := &sqlast.CreateView{
		Name: fmt.Sprintf("v%d", sg.viewSeq),
		Select: &sqlast.Select{
			Cols: []sqlast.ResultCol{{X: sqlast.Col("", info.Columns[0].Name)}},
			From: []sqlast.TableRef{{Name: table}},
		},
	}
	sg.viewSeq++
	return apply(cv)
}

func (sg *StateGen) genOption(apply Apply) error {
	switch sg.Rnd.D {
	case dialect.SQLite:
		return apply(&sqlast.SetOption{
			Name:  "case_sensitive_like",
			Value: sqlast.Lit(sqlval.Int(int64(sg.Rnd.Intn(2)))),
		})
	case dialect.MySQL:
		vals := []int64{100, 42, 200, 7, 1000}
		return apply(&sqlast.SetOption{
			Global: true,
			Name:   "key_cache_division_limit",
			Value:  sqlast.Lit(sqlval.Int(vals[sg.Rnd.Intn(len(vals))])),
		})
	default:
		return apply(&sqlast.SetOption{
			Name:  "enable_seqscan",
			Value: sqlast.Lit(sqlval.Bool(sg.Rnd.Bool(0.5))),
		})
	}
}

package sqlast

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"repro/internal/dialect"
	"repro/internal/sqlval"
)

// SQL renders a statement as dialect-appropriate SQL text, terminated
// without a semicolon. PQS renders generated ASTs through this function and
// submits the text to the engine, which re-parses it — mirroring SQLancer
// speaking SQL to a DBMS over a connection.
func SQL(s Stmt, d dialect.Dialect) string {
	var b sqlBuf
	renderStmt(&b, s, d)
	return b.String()
}

// ExprSQL renders an expression as dialect-appropriate SQL text.
func ExprSQL(e Expr, d dialect.Dialect) string {
	var b sqlBuf
	renderExpr(&b, e, d)
	return b.String()
}

// AppendPredicateKey appends e's rendering with every column reference's
// table qualifier dropped to dst. It is the form partial-index predicates
// are matched by (schema.Catalog.PredicateKey).
func AppendPredicateKey(dst []byte, e Expr, d dialect.Dialect) []byte {
	b := sqlBuf{buf: dst, noQual: true}
	renderExpr(&b, e, d)
	return b.buf
}

// sqlBuf is the renderer's output: an append buffer, with noQual set when
// column references render without their table qualifier.
type sqlBuf struct {
	buf    []byte
	noQual bool
}

func (b *sqlBuf) WriteString(s string) { b.buf = append(b.buf, s...) }

func (b *sqlBuf) WriteByte(c byte) error {
	b.buf = append(b.buf, c)
	return nil
}

// String returns the rendered text without copying it, as strings.Builder
// does: a renderer's buffer is never written after String.
func (b *sqlBuf) String() string { return unsafe.String(unsafe.SliceData(b.buf), len(b.buf)) }

func renderStmt(b *sqlBuf, s Stmt, d dialect.Dialect) {
	switch n := s.(type) {
	case *CreateTable:
		renderCreateTable(b, n, d)
	case *CreateIndex:
		renderCreateIndex(b, n, d)
	case *CreateView:
		b.WriteString("CREATE VIEW ")
		if n.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		writeIdent(b, n.Name)
		b.WriteString(" AS ")
		renderSelect(b, n.Select, d)
	case *CreateStats:
		b.WriteString("CREATE STATISTICS ")
		writeIdent(b, n.Name)
		b.WriteString(" ON ")
		writeIdentList(b, n.Columns)
		b.WriteString(" FROM ")
		writeIdent(b, n.Table)
	case *Insert:
		renderInsert(b, n, d)
	case *Update:
		renderUpdate(b, n, d)
	case *Delete:
		b.WriteString("DELETE FROM ")
		writeIdent(b, n.Table)
		if n.Where != nil {
			b.WriteString(" WHERE ")
			renderExpr(b, n.Where, d)
		}
	case *AlterTable:
		renderAlter(b, n, d)
	case *Drop:
		switch n.Obj {
		case DropIndex:
			b.WriteString("DROP INDEX ")
		case DropView:
			b.WriteString("DROP VIEW ")
		default:
			b.WriteString("DROP TABLE ")
		}
		if n.IfExists {
			b.WriteString("IF EXISTS ")
		}
		writeIdent(b, n.Name)
	case *Select:
		renderSelect(b, n, d)
	case *Compound:
		for i, sel := range n.Selects {
			if i > 0 {
				b.WriteString(" ")
				b.WriteString(n.Ops[i-1].String())
				b.WriteString(" ")
			}
			renderSelect(b, sel, d)
		}
	case *Maintenance:
		renderMaintenance(b, n, d)
	case *SetOption:
		renderSetOption(b, n, d)
	case *Explain:
		b.WriteString("EXPLAIN ")
		renderStmt(b, n.Target, d)
	case *Txn:
		b.WriteString(n.Kind())
	default:
		panic(fmt.Sprintf("sqlast: cannot render %T", s))
	}
}

func renderCreateTable(b *sqlBuf, n *CreateTable, d dialect.Dialect) {
	b.WriteString("CREATE TABLE ")
	if n.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	writeIdent(b, n.Name)
	b.WriteString("(")
	for i, c := range n.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		renderColumnDef(b, &c, d)
	}
	if len(n.PrimaryKey) > 0 {
		b.WriteString(", PRIMARY KEY (")
		writeIdentList(b, n.PrimaryKey)
		b.WriteString(")")
	}
	b.WriteString(")")
	if n.WithoutRowid {
		b.WriteString(" WITHOUT ROWID")
	}
	if n.Engine != "" {
		b.WriteString(" ENGINE = ")
		b.WriteString(n.Engine)
	}
	if n.Inherits != "" {
		b.WriteString(" INHERITS (")
		writeIdent(b, n.Inherits)
		b.WriteString(")")
	}
}

func renderColumnDef(b *sqlBuf, c *ColumnDef, d dialect.Dialect) {
	writeIdent(b, c.Name)
	if c.TypeName != "" {
		b.WriteString(" ")
		b.WriteString(c.TypeName)
	}
	if c.Unsigned {
		b.WriteString(" UNSIGNED")
	}
	if c.PrimaryKey {
		b.WriteString(" PRIMARY KEY")
	}
	if c.Unique {
		b.WriteString(" UNIQUE")
	}
	if c.NotNull {
		b.WriteString(" NOT NULL")
	}
	if c.Collate != "" {
		b.WriteString(" COLLATE ")
		b.WriteString(c.Collate)
	}
	if c.Default != nil {
		b.WriteString(" DEFAULT (")
		renderExpr(b, c.Default, d)
		b.WriteString(")")
	}
	if c.Check != nil {
		b.WriteString(" CHECK (")
		renderExpr(b, c.Check, d)
		b.WriteString(")")
	}
}

func renderCreateIndex(b *sqlBuf, n *CreateIndex, d dialect.Dialect) {
	b.WriteString("CREATE ")
	if n.Unique {
		b.WriteString("UNIQUE ")
	}
	b.WriteString("INDEX ")
	if n.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	writeIdent(b, n.Name)
	b.WriteString(" ON ")
	writeIdent(b, n.Table)
	b.WriteString("(")
	for i, p := range n.Parts {
		if i > 0 {
			b.WriteString(", ")
		}
		// Bare column names render unparenthesized; expression index
		// parts need parens in MySQL and Postgres. Double-quoted parts
		// (MaybeString) must keep their quotes through renderExpr or the
		// round trip turns them into ordinary column references.
		if c, ok := p.X.(*ColumnRef); ok && c.Table == "" && !c.MaybeString {
			writeIdent(b, c.Column)
		} else if c, ok := p.X.(*ColumnRef); ok && c.MaybeString {
			renderExpr(b, p.X, d)
		} else if _, ok := p.X.(*Literal); ok && d == dialect.SQLite {
			renderExpr(b, p.X, d)
		} else {
			b.WriteString("(")
			renderExpr(b, p.X, d)
			b.WriteString(")")
		}
		if p.Collate != "" {
			b.WriteString(" COLLATE ")
			b.WriteString(p.Collate)
		}
		if p.Desc {
			b.WriteString(" DESC")
		}
	}
	b.WriteString(")")
	if n.Where != nil {
		b.WriteString(" WHERE ")
		renderExpr(b, n.Where, d)
	}
}

func renderInsert(b *sqlBuf, n *Insert, d dialect.Dialect) {
	b.WriteString("INSERT ")
	switch n.Conflict {
	case ConflictIgnore:
		if d == dialect.MySQL {
			b.WriteString("IGNORE ")
		} else {
			b.WriteString("OR IGNORE ")
		}
	case ConflictReplace:
		b.WriteString("OR REPLACE ")
	}
	b.WriteString("INTO ")
	writeIdent(b, n.Table)
	if len(n.Columns) > 0 {
		b.WriteString("(")
		writeIdentList(b, n.Columns)
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range n.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, e, d)
		}
		b.WriteString(")")
	}
}

func renderUpdate(b *sqlBuf, n *Update, d dialect.Dialect) {
	b.WriteString("UPDATE ")
	if n.Conflict == ConflictReplace {
		b.WriteString("OR REPLACE ")
	}
	writeIdent(b, n.Table)
	b.WriteString(" SET ")
	for i, a := range n.Sets {
		if i > 0 {
			b.WriteString(", ")
		}
		writeIdent(b, a.Column)
		b.WriteString(" = ")
		renderExpr(b, a.Value, d)
	}
	if n.Where != nil {
		b.WriteString(" WHERE ")
		renderExpr(b, n.Where, d)
	}
}

func renderAlter(b *sqlBuf, n *AlterTable, d dialect.Dialect) {
	b.WriteString("ALTER TABLE ")
	writeIdent(b, n.Table)
	switch n.Action {
	case AlterRenameTable:
		b.WriteString(" RENAME TO ")
		writeIdent(b, n.NewName)
	case AlterRenameColumn:
		b.WriteString(" RENAME COLUMN ")
		writeIdent(b, n.OldName)
		b.WriteString(" TO ")
		writeIdent(b, n.NewName)
	case AlterAddColumn:
		b.WriteString(" ADD COLUMN ")
		renderColumnDef(b, &n.Column, d)
	}
}

func renderSelect(b *sqlBuf, n *Select, d dialect.Dialect) {
	b.WriteString("SELECT ")
	if n.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, c := range n.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		if c.Star {
			b.WriteString("*")
			continue
		}
		renderExpr(b, c.X, d)
		if c.Alias != "" {
			b.WriteString(" AS ")
			writeIdent(b, c.Alias)
		}
	}
	if len(n.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range n.From {
			if i > 0 {
				b.WriteString(", ")
			}
			renderTableRef(b, &t)
		}
	}
	for _, j := range n.Joins {
		switch j.Kind {
		case JoinCross:
			b.WriteString(" CROSS JOIN ")
		case JoinLeft:
			b.WriteString(" LEFT JOIN ")
		default:
			b.WriteString(" JOIN ")
		}
		renderTableRef(b, &j.Table)
		if j.On != nil {
			b.WriteString(" ON ")
			renderExpr(b, j.On, d)
		}
	}
	if n.Where != nil {
		b.WriteString(" WHERE ")
		renderExpr(b, n.Where, d)
	}
	if len(n.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range n.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, e, d)
		}
	}
	if n.Having != nil {
		b.WriteString(" HAVING ")
		renderExpr(b, n.Having, d)
	}
	if len(n.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range n.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, o.X, d)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if n.Limit != nil {
		b.WriteString(" LIMIT ")
		renderExpr(b, n.Limit, d)
		if n.Offset != nil {
			b.WriteString(" OFFSET ")
			renderExpr(b, n.Offset, d)
		}
	}
}

func renderTableRef(b *sqlBuf, t *TableRef) {
	if t.Only {
		b.WriteString("ONLY ")
	}
	writeIdent(b, t.Name)
	if t.Alias != "" {
		b.WriteString(" AS ")
		writeIdent(b, t.Alias)
	}
}

func renderMaintenance(b *sqlBuf, n *Maintenance, d dialect.Dialect) {
	switch n.Op {
	case MaintVacuum:
		b.WriteString("VACUUM")
	case MaintVacuumFull:
		b.WriteString("VACUUM FULL")
	case MaintReindex:
		b.WriteString("REINDEX")
		if n.Table != "" {
			b.WriteString(" ")
			writeIdent(b, n.Table)
		}
	case MaintAnalyze:
		b.WriteString("ANALYZE")
		if n.Table != "" {
			b.WriteString(" ")
			writeIdent(b, n.Table)
		}
	case MaintRepairTable:
		b.WriteString("REPAIR TABLE ")
		writeIdent(b, n.Table)
	case MaintCheckTable:
		b.WriteString("CHECK TABLE ")
		writeIdent(b, n.Table)
	case MaintCheckTableForUpgrade:
		b.WriteString("CHECK TABLE ")
		writeIdent(b, n.Table)
		b.WriteString(" FOR UPGRADE")
	case MaintDiscard:
		b.WriteString("DISCARD PLANS")
	}
}

func renderSetOption(b *sqlBuf, n *SetOption, d dialect.Dialect) {
	if d == dialect.SQLite {
		b.WriteString("PRAGMA ")
	} else {
		b.WriteString("SET ")
		if n.Global {
			b.WriteString("GLOBAL ")
		}
	}
	writeIdent(b, n.Name)
	// A nil value is the query form (`PRAGMA name` / `SET name`).
	if n.Value != nil {
		b.WriteString(" = ")
		renderExpr(b, n.Value, d)
	}
}

// negatedLiteral returns the negation of an int/real literal value when
// that is exact (MinInt64 has no int64 negation; other kinds coerce
// dialect-specifically and must stay as unary expressions).
func negatedLiteral(v sqlval.Value) (sqlval.Value, bool) {
	switch v.Kind() {
	case sqlval.KInt:
		if v.Int64() == math.MinInt64 {
			return v, false
		}
		return sqlval.Int(-v.Int64()), true
	case sqlval.KReal:
		return sqlval.Real(-v.Float64()), true
	}
	return v, false
}

// binOpToken returns the SQL spelling of a binary operator for the dialect.
func binOpToken(op BinOp, d dialect.Dialect) string {
	switch op {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIs:
		return "IS"
	case OpIsNot:
		return "IS NOT"
	case OpNullSafeEq:
		return "<=>"
	case OpLike:
		return "LIKE"
	case OpNotLike:
		return "NOT LIKE"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		if d.ConcatIsOr() {
			// MySQL spells concatenation CONCAT(); `||` is OR. The
			// generator never emits OpConcat for MySQL, but render it
			// safely if asked.
			return "||"
		}
		return "||"
	case OpBitAnd:
		return "&"
	case OpBitOr:
		return "|"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	default:
		panic(fmt.Sprintf("sqlast: unknown binop %d", op))
	}
}

func renderExpr(b *sqlBuf, e Expr, d dialect.Dialect) {
	switch n := e.(type) {
	case *Literal:
		b.buf = n.Val.AppendLiteral(b.buf)
	case *ColumnRef:
		if n.MaybeString {
			b.WriteString("\"")
			b.WriteString(strings.ReplaceAll(n.Column, "\"", "\"\""))
			b.WriteString("\"")
			return
		}
		if n.Table != "" && !b.noQual {
			writeIdent(b, n.Table)
			b.WriteString(".")
		}
		writeIdent(b, n.Column)
	case *Unary:
		switch n.Op {
		case OpNot:
			b.WriteString("(NOT ")
			renderExpr(b, n.X, d)
			b.WriteString(")")
		case OpNeg:
			// Fold negation of a numeric literal into the literal: the
			// parser folds `- 5` to -5 on reparse, so rendering the
			// unfolded form would not be idempotent. Negating Int (except
			// MinInt64) and Real literals is exact in every dialect and
			// hooked by no fault, so the fold is semantics-preserving.
			if lit, ok := n.X.(*Literal); ok {
				if v, ok := negatedLiteral(lit.Val); ok {
					b.buf = v.AppendLiteral(b.buf)
					return
				}
			}
			b.WriteString("(- ")
			renderExpr(b, n.X, d)
			b.WriteString(")")
		case OpPos:
			b.WriteString("(+ ")
			renderExpr(b, n.X, d)
			b.WriteString(")")
		case OpBitNot:
			b.WriteString("(~ ")
			renderExpr(b, n.X, d)
			b.WriteString(")")
		case OpIsNull:
			b.WriteString("(")
			renderExpr(b, n.X, d)
			b.WriteString(" IS NULL)")
		case OpNotNull:
			b.WriteString("(")
			renderExpr(b, n.X, d)
			b.WriteString(" IS NOT NULL)")
		}
	case *Binary:
		b.WriteString("(")
		renderExpr(b, n.L, d)
		b.WriteString(" ")
		b.WriteString(binOpToken(n.Op, d))
		b.WriteString(" ")
		renderExpr(b, n.R, d)
		b.WriteString(")")
	case *Between:
		b.WriteString("(")
		renderExpr(b, n.X, d)
		if n.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		renderExpr(b, n.Lo, d)
		b.WriteString(" AND ")
		renderExpr(b, n.Hi, d)
		b.WriteString(")")
	case *InList:
		b.WriteString("(")
		renderExpr(b, n.X, d)
		if n.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, x := range n.List {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, x, d)
		}
		b.WriteString("))")
	case *Cast:
		b.WriteString("CAST(")
		renderExpr(b, n.X, d)
		b.WriteString(" AS ")
		b.WriteString(n.TypeName)
		b.WriteString(")")
	case *Collate:
		b.WriteString("(")
		renderExpr(b, n.X, d)
		b.WriteString(" COLLATE ")
		b.WriteString(n.Coll.String())
		b.WriteString(")")
	case *Case:
		b.WriteString("CASE")
		if n.Operand != nil {
			b.WriteString(" ")
			renderExpr(b, n.Operand, d)
		}
		for _, w := range n.Whens {
			b.WriteString(" WHEN ")
			renderExpr(b, w.When, d)
			b.WriteString(" THEN ")
			renderExpr(b, w.Then, d)
		}
		if n.Else != nil {
			b.WriteString(" ELSE ")
			renderExpr(b, n.Else, d)
		}
		b.WriteString(" END")
	case *FuncCall:
		b.WriteString(n.Name)
		b.WriteString("(")
		for i, x := range n.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, x, d)
		}
		b.WriteString(")")
	default:
		panic(fmt.Sprintf("sqlast: cannot render expr %T", e))
	}
}

package gen

import (
	"slices"

	"repro/internal/dialect"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// ColumnPick is one column available to the expression generator, with the
// (possibly aliased) table name to qualify it by.
type ColumnPick struct {
	Table  string
	Column schema.ColumnInfo
	// Ref, when set, is a prebuilt reference to Table.Column that every
	// generated use of the column shares instead of building its own (the
	// engine never mutates a statement, so one node can appear anywhere).
	Ref *sqlast.ColumnRef
}

// ref returns the column's reference node: the shared Ref, or a new one
// from the generator's arena.
func (eg *ExprGen) ref(c ColumnPick) *sqlast.ColumnRef {
	if c.Ref != nil {
		return c.Ref
	}
	return eg.nodes.Col(c.Table, c.Column.Name)
}

// ExprGen generates random expression ASTs over a schema (Algorithm 1 of
// the paper). Hints are values drawn from the pivot row and table data so
// generated constants often collide with stored values — without this bias
// equality predicates would almost never be satisfiable.
//
// Generated nodes come from the generator's arena (Nodes) and live until
// the next Reset, which rewinds it: a caller that keeps an expression
// across Resets renders it first.
type ExprGen struct {
	Rnd   *Rand
	Cols  []ColumnPick
	Hints []sqlval.Value
	// ColValues, when parallel to Cols, holds the current pivot row's value
	// for each column. simpleComparison biases literals toward the chosen
	// column's own pivot value, so comparisons sit exactly on the values the
	// planner's index probes and range boundaries must not miss.
	ColValues []sqlval.Value
	MaxDepth  int

	// byCat holds Cols stably sorted by category, one subslice per
	// category of sorted; built on first use, as Cols is fixed until the
	// next Reset. cats is the grouping's per-column scratch.
	byCat   [CatBool + 1][]ColumnPick
	grouped bool
	sorted  []ColumnPick
	cats    []Category

	nodes sqlast.Arena
}

// Reset readies the generator for a new column pool, keeping the memory of
// its per-category grouping and rewinding its node arena; ColValues is
// cleared. A generator reused this way draws exactly what a new one built
// from the same fields would.
func (eg *ExprGen) Reset(rnd *Rand, cols []ColumnPick, hints []sqlval.Value, maxDepth int) {
	*eg = ExprGen{
		Rnd:      rnd,
		Cols:     cols,
		Hints:    hints,
		MaxDepth: maxDepth,
		sorted:   eg.sorted[:0],
		cats:     eg.cats[:0],
		nodes:    eg.nodes,
	}
	eg.nodes.Reset()
}

// Nodes is the arena the generator builds from: callers wrapping or
// combining generated expressions (rectification) take their nodes from it
// too, so they share the generated nodes' lifetime.
func (eg *ExprGen) Nodes() *sqlast.Arena { return &eg.nodes }

// Generate produces an expression suitable for a filter condition.
// For the strictly-typed Postgres profile the root is boolean-typed; the
// other dialects convert implicitly, so any expression works.
//
// A quarter of conditions are simple `column <op> literal` comparisons
// with the literal drawn from (a mutation of) a stored value — the shape
// the planner's index-lookup paths key on, and where most of the paper's
// index bugs were triggered (Listings 1, 4, 5, 7).
func (eg *ExprGen) Generate() sqlast.Expr {
	if eg.MaxDepth <= 0 {
		eg.MaxDepth = 3
	}
	if len(eg.Cols) > 0 && eg.Rnd.Bool(0.25) {
		return eg.simpleComparison()
	}
	if eg.Rnd.D == dialect.Postgres {
		return eg.genBool(0)
	}
	return eg.genAny(0)
}

// simpleComparison builds `col <op> literal` with an index-lookup-friendly
// operator and a literal that often collides with (or is a case/space
// mutation of) a stored value. Column choice is biased toward collated
// columns: those are where the planner's collation decisions (and the
// paper's collated-index bug class) live.
func (eg *ExprGen) simpleComparison() sqlast.Expr {
	c := eg.Cols[eg.Rnd.Intn(len(eg.Cols))]
	if eg.Rnd.D == dialect.SQLite && eg.Rnd.Bool(0.5) {
		interesting := func(cand ColumnPick) bool {
			return (cand.Column.Collate != "" && cand.Column.Collate != "BINARY") || cand.Column.PK
		}
		n := 0
		for _, cand := range eg.Cols {
			if interesting(cand) {
				n++
			}
		}
		if n > 0 {
			// The k-th interesting column, counted without collecting them.
			k := eg.Rnd.Intn(n)
			for _, cand := range eg.Cols {
				if interesting(cand) {
					if k == 0 {
						c = cand
						break
					}
					k--
				}
			}
		}
	}
	col := eg.ref(c)
	lit := eg.pivotLiteral(c)
	switch eg.Rnd.D {
	case dialect.SQLite:
		// Inclusive range bounds on stored values sit exactly on index
		// range-scan boundaries (the range-scan-boundary trigger).
		if eg.Rnd.Bool(0.12) {
			return eg.nodes.Between(false, col, eg.pivotLiteral(c), eg.pivotLiteral(c))
		}
		var l sqlast.Expr = col
		// Collation-qualified comparisons steer the planner's
		// index-vs-collation decision (the planner-collation-confusion
		// trigger: a NOCASE comparison served by a BINARY-ordered index).
		if eg.Rnd.Bool(0.15) {
			colls := []sqlval.Collation{sqlval.CollNoCase, sqlval.CollRTrim}
			l = eg.nodes.Collate(col, colls[eg.Rnd.Intn(len(colls))])
		}
		ops := []sqlast.BinOp{sqlast.OpEq, sqlast.OpEq, sqlast.OpIs, sqlast.OpIsNot,
			sqlast.OpGt, sqlast.OpGe, sqlast.OpLt, sqlast.OpLe}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(len(ops))], l, lit)
	case dialect.MySQL:
		ops := []sqlast.BinOp{sqlast.OpEq, sqlast.OpNullSafeEq, sqlast.OpNullSafeEq, sqlast.OpGt, sqlast.OpNe}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(len(ops))], col, lit)
	default:
		cat := CategoryOfType(c.Column.TypeName)
		if cat == CatBool {
			// Bare boolean column or an IS TRUE test.
			if eg.Rnd.Bool(0.5) {
				return col
			}
			return eg.nodes.Binary(sqlast.OpIs, col, eg.nodes.Lit(sqlval.Bool(eg.Rnd.Bool(0.5))))
		}
		ops := []sqlast.BinOp{sqlast.OpEq, sqlast.OpLt, sqlast.OpGt, sqlast.OpNe}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(len(ops))], col, eg.nodes.Lit(eg.Rnd.ValueOfCategory(cat)))
	}
}

// pivotLiteral draws a literal for a comparison against column c: half the
// time the pivot row's own value for c (possibly case/space-mutated — the
// comparison is then TRUE on the pivot and survives rectification as a
// sargable WHERE conjunct), otherwise a general mutated hint.
func (eg *ExprGen) pivotLiteral(c ColumnPick) sqlast.Expr {
	idx := -1
	for i := range eg.Cols {
		if eg.Cols[i].Table == c.Table && eg.Cols[i].Column.Name == c.Column.Name {
			idx = i
			break
		}
	}
	if idx >= 0 && idx < len(eg.ColValues) && eg.Rnd.Bool(0.5) {
		v := eg.ColValues[idx]
		if !v.IsNull() {
			if v.Kind() == sqlval.KText && eg.Rnd.Bool(0.5) {
				switch eg.Rnd.Intn(2) {
				case 0:
					return eg.nodes.Lit(sqlval.Text(ToggleCase(v.Str())))
				default:
					return eg.nodes.Lit(sqlval.Text(v.Str() + "  "))
				}
			}
			return eg.nodes.Lit(v)
		}
	}
	return eg.mutatedHint(c)
}

// mutatedHint draws a literal near the stored data: a hint value verbatim,
// or a case-toggled / trailing-space variant of a stored text (the NOCASE
// and RTRIM bug triggers), or a fresh random value.
func (eg *ExprGen) mutatedHint(c ColumnPick) sqlast.Expr {
	if len(eg.Hints) > 0 && eg.Rnd.Bool(0.65) {
		h := eg.Hints[eg.Rnd.Intn(len(eg.Hints))]
		if h.Kind() == sqlval.KText && eg.Rnd.Bool(0.5) {
			s := h.Str()
			switch eg.Rnd.Intn(3) {
			case 0: // toggle ASCII case
				s = ToggleCase(s)
			case 1: // append trailing spaces
				s += "  "
			default: // trim trailing spaces
				for len(s) > 0 && s[len(s)-1] == ' ' {
					s = s[:len(s)-1]
				}
			}
			return eg.nodes.Lit(sqlval.Text(s))
		}
		return eg.nodes.Lit(h)
	}
	return eg.nodes.Lit(eg.Rnd.Value())
}

// ToggleCase flips the ASCII case of every letter — the generator's
// canonical way to produce NOCASE-equal but BINARY-distinct variants.
func ToggleCase(s string) string {
	b := []byte(s)
	for i, ch := range b {
		switch {
		case ch >= 'a' && ch <= 'z':
			b[i] = ch - 32
		case ch >= 'A' && ch <= 'Z':
			b[i] = ch + 32
		}
	}
	return string(b)
}

// GenerateValueExpr produces an expression used in a result-column
// position (the §3.4 "expressions on columns" extension).
func (eg *ExprGen) GenerateValueExpr() sqlast.Expr {
	if eg.Rnd.D == dialect.Postgres {
		// Keep result expressions well-typed: a column or a typed literal.
		if len(eg.Cols) > 0 && eg.Rnd.Bool(0.7) {
			return eg.column()
		}
		return eg.nodes.Lit(eg.Rnd.Value())
	}
	return eg.genAny(eg.MaxDepth - 1) // shallow
}

func (eg *ExprGen) column() sqlast.Expr {
	return eg.ref(eg.Cols[eg.Rnd.Intn(len(eg.Cols))])
}

// literal draws a constant, biased toward hint values.
func (eg *ExprGen) literal() sqlast.Expr {
	if len(eg.Hints) > 0 && eg.Rnd.Bool(0.5) {
		return eg.nodes.Lit(eg.Hints[eg.Rnd.Intn(len(eg.Hints))])
	}
	return eg.nodes.Lit(eg.Rnd.Value())
}

// genAny implements Algorithm 1 for the implicitly-converting dialects.
func (eg *ExprGen) genAny(depth int) sqlast.Expr {
	leafOnly := depth >= eg.MaxDepth
	if leafOnly || eg.Rnd.Bool(0.28) {
		if len(eg.Cols) > 0 && eg.Rnd.Bool(0.55) {
			col := eg.Cols[eg.Rnd.Intn(len(eg.Cols))]
			x := eg.ref(col)
			// Occasionally attach a COLLATE (SQLite).
			if eg.Rnd.D == dialect.SQLite && eg.Rnd.Bool(0.08) {
				colls := []sqlval.Collation{sqlval.CollNoCase, sqlval.CollRTrim, sqlval.CollBinary}
				return eg.nodes.Collate(x, colls[eg.Rnd.Intn(len(colls))])
			}
			return x
		}
		return eg.literal()
	}
	switch eg.Rnd.Intn(14) {
	case 0:
		return eg.nodes.Unary(sqlast.OpNot, eg.genAny(depth+1))
	case 1:
		ops := []sqlast.UnaryOp{sqlast.OpNeg, sqlast.OpPos, sqlast.OpBitNot}
		return eg.nodes.Unary(ops[eg.Rnd.Intn(len(ops))], eg.genAny(depth+1))
	case 2:
		op := sqlast.OpIsNull
		if eg.Rnd.Bool(0.5) {
			op = sqlast.OpNotNull
		}
		return eg.nodes.Unary(op, eg.genAny(depth+1))
	case 3, 4:
		ops := []sqlast.BinOp{sqlast.OpAnd, sqlast.OpOr}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(2)], eg.genAny(depth+1), eg.genAny(depth+1))
	case 5, 6:
		ops := []sqlast.BinOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(len(ops))], eg.genAny(depth+1), eg.genAny(depth+1))
	case 7:
		// Dialect-specific null-safe comparisons: SQLite IS / IS NOT,
		// MySQL <=> (Listings 1 and 12).
		if eg.Rnd.D == dialect.SQLite {
			op := sqlast.OpIs
			if eg.Rnd.Bool(0.5) {
				op = sqlast.OpIsNot
			}
			return eg.nodes.Binary(op, eg.genAny(depth+1), eg.genAny(depth+1))
		}
		return eg.nodes.Binary(sqlast.OpNullSafeEq, eg.genAny(depth+1), eg.genAny(depth+1))
	case 8:
		ops := []sqlast.BinOp{sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(len(ops))], eg.genAny(depth+1), eg.genAny(depth+1))
	case 9:
		op := sqlast.OpLike
		if eg.Rnd.Bool(0.3) {
			op = sqlast.OpNotLike
		}
		return eg.nodes.Binary(op, eg.genAny(depth+1), eg.likePattern())
	case 10:
		return eg.nodes.Between(eg.Rnd.Bool(0.3), eg.genAny(depth+1), eg.literal(), eg.literal())
	case 11:
		n := 1 + eg.Rnd.Intn(3)
		not := eg.Rnd.Bool(0.3)
		in := eg.nodes.InList(not, eg.genAny(depth+1), eg.nodes.Exprs(n))
		for i := range in.List {
			in.List[i] = eg.literal()
		}
		return in
	case 12:
		return eg.cast(eg.genAny(depth + 1))
	default:
		return eg.funcCall(depth)
	}
}

// likePattern draws a LIKE pattern, often an exact stored value (the
// Listing 7 trigger) and often wildcarded.
func (eg *ExprGen) likePattern() sqlast.Expr {
	base := ""
	if len(eg.Hints) > 0 && eg.Rnd.Bool(0.6) {
		h := eg.Hints[eg.Rnd.Intn(len(eg.Hints))]
		if h.Kind() == sqlval.KText {
			base = h.Str()
		}
	}
	if base == "" {
		base = interestingTexts[eg.Rnd.Intn(len(interestingTexts))]
	}
	switch eg.Rnd.Intn(4) {
	case 0:
		return eg.nodes.Lit(sqlval.Text(base)) // exact match (no wildcards)
	case 1:
		return eg.nodes.Lit(sqlval.Text(base + "%"))
	case 2:
		return eg.nodes.Lit(sqlval.Text("%" + base))
	default:
		return eg.nodes.Lit(sqlval.Text("%" + base + "%"))
	}
}

func (eg *ExprGen) cast(x sqlast.Expr) sqlast.Expr {
	var types []string
	switch eg.Rnd.D {
	case dialect.MySQL:
		types = []string{"UNSIGNED", "SIGNED", "CHAR"}
	case dialect.Postgres:
		types = []string{"INT", "TEXT", "REAL", "BOOLEAN"}
	default:
		types = []string{"INTEGER", "TEXT", "REAL", "BLOB", "NUMERIC"}
	}
	return eg.nodes.Cast(x, types[eg.Rnd.Intn(len(types))])
}

func (eg *ExprGen) funcCall(depth int) sqlast.Expr {
	switch eg.Rnd.Intn(6) {
	case 0:
		return eg.nodes.Func("ABS", eg.genAny(depth+1))
	case 1:
		return eg.nodes.Func("LENGTH", eg.genAny(depth+1))
	case 2:
		if eg.Rnd.D == dialect.MySQL {
			return eg.nodes.Func("IFNULL", eg.genAny(depth+1), eg.genAny(depth+1))
		}
		return eg.nodes.Func("IFNULL", eg.genAny(depth+1), eg.literal())
	case 3:
		return eg.nodes.Func("COALESCE", eg.genAny(depth+1), eg.literal())
	case 4:
		name := "LOWER"
		if eg.Rnd.Bool(0.5) {
			name = "UPPER"
		}
		return eg.nodes.Func(name, eg.genAny(depth+1))
	default:
		return eg.nodes.Func("NULLIF", eg.genAny(depth+1), eg.literal())
	}
}

// ---- strictly-typed generation (PostgreSQL profile) ----

// colsOfCategory returns the columns of a category, in Cols order. The
// slice is shared and read-only.
func (eg *ExprGen) colsOfCategory(cat Category) []ColumnPick {
	if !eg.grouped {
		eg.grouped = true
		cats := eg.cats[:0]
		for _, c := range eg.Cols {
			cats = append(cats, CategoryOfType(c.Column.TypeName))
		}
		// Grown once up front, so every category subslice shares one array.
		sorted := slices.Grow(eg.sorted[:0], len(eg.Cols))
		eg.cats = cats
		for k := range eg.byCat {
			start := len(sorted)
			for i, c := range eg.Cols {
				if cats[i] == Category(k) {
					sorted = append(sorted, c)
				}
			}
			eg.byCat[k] = sorted[start:len(sorted):len(sorted)]
		}
		eg.sorted = sorted
	}
	return eg.byCat[cat]
}

// genBool generates a boolean-typed expression tree.
func (eg *ExprGen) genBool(depth int) sqlast.Expr {
	leafOnly := depth >= eg.MaxDepth
	if leafOnly || eg.Rnd.Bool(0.2) {
		if bools := eg.colsOfCategory(CatBool); len(bools) > 0 && eg.Rnd.Bool(0.5) {
			return eg.ref(bools[eg.Rnd.Intn(len(bools))])
		}
		return eg.nodes.Lit(sqlval.Bool(eg.Rnd.Bool(0.5)))
	}
	switch eg.Rnd.Intn(9) {
	case 0:
		return eg.nodes.Unary(sqlast.OpNot, eg.genBool(depth+1))
	case 1, 2:
		ops := []sqlast.BinOp{sqlast.OpAnd, sqlast.OpOr}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(2)], eg.genBool(depth+1), eg.genBool(depth+1))
	case 3, 4, 5:
		cat := eg.someCategory()
		ops := []sqlast.BinOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}
		return eg.nodes.Binary(ops[eg.Rnd.Intn(len(ops))], eg.genTyped(cat, depth+1), eg.genTyped(cat, depth+1))
	case 6:
		op := sqlast.OpIsNull
		if eg.Rnd.Bool(0.5) {
			op = sqlast.OpNotNull
		}
		return eg.nodes.Unary(op, eg.genTyped(eg.someCategory(), depth+1))
	case 7:
		// x IS TRUE / IS NOT FALSE — boolean identity tests.
		op := sqlast.OpIs
		if eg.Rnd.Bool(0.5) {
			op = sqlast.OpIsNot
		}
		return eg.nodes.Binary(op, eg.genBool(depth+1), eg.nodes.Lit(sqlval.Bool(eg.Rnd.Bool(0.5))))
	default:
		cat := eg.someCategory()
		return eg.nodes.Between(eg.Rnd.Bool(0.3), eg.genTyped(cat, depth+1),
			eg.nodes.Lit(eg.Rnd.ValueOfCategory(cat)), eg.nodes.Lit(eg.Rnd.ValueOfCategory(cat)))
	}
}

func (eg *ExprGen) someCategory() Category {
	cats := []Category{CatInt, CatText, CatBool, CatReal}
	// Prefer categories that actually have columns.
	for tries := 0; tries < 3; tries++ {
		cat := cats[eg.Rnd.Intn(len(cats))]
		if len(eg.colsOfCategory(cat)) > 0 {
			return cat
		}
	}
	return cats[eg.Rnd.Intn(len(cats))]
}

// genTyped generates an expression of a specific category. Arithmetic is
// deliberately excluded for Postgres filters: division by zero and integer
// overflow raise runtime errors there, which would contaminate the
// containment oracle (the error oracle covers them via other statements).
func (eg *ExprGen) genTyped(cat Category, depth int) sqlast.Expr {
	if cat == CatBool {
		return eg.genBool(depth)
	}
	cols := eg.colsOfCategory(cat)
	if len(cols) > 0 && eg.Rnd.Bool(0.55) {
		return eg.ref(cols[eg.Rnd.Intn(len(cols))])
	}
	if len(eg.Hints) > 0 && eg.Rnd.Bool(0.4) {
		h := eg.Hints[eg.Rnd.Intn(len(eg.Hints))]
		if matchesCategory(h, cat) {
			return eg.nodes.Lit(h)
		}
	}
	return eg.nodes.Lit(eg.Rnd.ValueOfCategory(cat))
}

func matchesCategory(v sqlval.Value, cat Category) bool {
	switch cat {
	case CatInt:
		return v.Kind() == sqlval.KInt || v.IsNull()
	case CatReal:
		return v.Kind() == sqlval.KReal || v.IsNull()
	case CatText:
		return v.Kind() == sqlval.KText || v.IsNull()
	case CatBool:
		return v.Kind() == sqlval.KBool || v.IsNull()
	default:
		return true
	}
}

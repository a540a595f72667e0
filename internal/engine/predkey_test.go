package engine

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/gen"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// TestPredicateKeyRendering holds partial-index keys to their definition:
// the key AppendPredicateKey renders into a reused buffer, and the
// catalog's key for the same predicate, must be byte-equal to the plain
// rendering of the predicate with every column reference's table
// qualifier cleared. Rows are fixed shapes with every qualifier and
// literal kind, then generated predicates per dialect.
func TestPredicateKeyRendering(t *testing.T) {
	col := func(table, name string) *sqlast.ColumnRef { return sqlast.Col(table, name) }
	lit := sqlast.Lit
	// fixed builds the fixed rows afresh: a check clears their qualifiers.
	fixed := func() []struct {
		name string
		x    sqlast.Expr
	} {
		return []struct {
			name string
			x    sqlast.Expr
		}{
			{"qualified", &sqlast.Binary{Op: sqlast.OpGt, L: col("t0", "c0"), R: lit(sqlval.Int(1))}},
			{"unqualified", &sqlast.Unary{Op: sqlast.OpNotNull, X: col("", "c0")}},
			{"quoted-table", &sqlast.Binary{Op: sqlast.OpEq, L: col("order", "c 1"), R: lit(sqlval.Text("it's"))}},
			{"maybe-string", &sqlast.Binary{Op: sqlast.OpEq, L: &sqlast.ColumnRef{Table: "t0", Column: "C3", MaybeString: true}, R: lit(sqlval.Null())}},
			{"negated-literal", &sqlast.Unary{Op: sqlast.OpNeg, X: lit(sqlval.Real(-2.5))}},
			{"collate", &sqlast.Collate{X: col("t1", "c1"), Coll: sqlval.CollNoCase}},
			{"between-in", &sqlast.Binary{Op: sqlast.OpAnd,
				L: &sqlast.Between{X: col("t0", "c0"), Lo: lit(sqlval.Real(1e21)), Hi: lit(sqlval.Uint(7))},
				R: &sqlast.InList{X: col("t1", "c2"), Not: true, List: []sqlast.Expr{lit(sqlval.Blob([]byte{0, 0xff})), lit(sqlval.Bool(true))}}}},
			{"case-func-cast", &sqlast.Case{Operand: col("t0", "c0"),
				Whens: []sqlast.WhenClause{{When: lit(sqlval.Int(1)), Then: &sqlast.FuncCall{Name: "LOWER", Args: []sqlast.Expr{col("t0", "c1")}}}},
				Else:  &sqlast.Cast{X: col("t2", "c0"), TypeName: "TEXT"}}},
		}
	}
	picks := []gen.ColumnPick{
		{Table: "t0", Column: schema.ColumnInfo{Name: "c0", TypeName: "INT"}},
		{Table: "t0", Column: schema.ColumnInfo{Name: "c1", TypeName: "TEXT", Collate: "NOCASE"}},
		{Table: "t1", Column: schema.ColumnInfo{Name: "c0", TypeName: "REAL"}},
		{Table: "t1", Column: schema.ColumnInfo{Name: "c1", TypeName: "BOOLEAN"}},
	}
	hints := []sqlval.Value{sqlval.Int(-3), sqlval.Text("a'B "), sqlval.Real(0.5), sqlval.Null()}
	for _, d := range dialect.All {
		cat := schema.NewCatalog(d)
		var buf []byte
		check := func(name string, x sqlast.Expr) {
			t.Helper()
			buf = sqlast.AppendPredicateKey(buf[:0], x, d)
			got := cat.PredicateKey(x)
			// The reference: clear the qualifiers in place (every
			// expression here is the test's own) and render.
			sqlast.WalkExprs(x, func(e sqlast.Expr) bool {
				if cr, ok := e.(*sqlast.ColumnRef); ok {
					cr.Table = ""
				}
				return true
			})
			want := sqlast.ExprSQL(x, d)
			if string(buf) != want || got != want {
				t.Fatalf("%s/%s: rendered key %q, catalog key %q, unqualified rendering %q", d, name, buf, got, want)
			}
		}
		for _, tc := range fixed() {
			check(tc.name, tc.x)
		}
		eg := &gen.ExprGen{Rnd: gen.NewRand(d, 11), Cols: picks, Hints: hints, MaxDepth: 4}
		for i := 0; i < 2000; i++ {
			check("generated", eg.Generate())
		}
	}
}

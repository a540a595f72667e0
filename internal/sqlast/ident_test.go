package sqlast

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlval"
)

func TestIdentNeedsQuote(t *testing.T) {
	quoteIdent := func(name string) string {
		var b sqlBuf
		writeIdent(&b, name)
		return b.String()
	}
	for name, want := range map[string]bool{
		"c0":     false,
		"_x9":    false,
		"T0":     false,
		"":       true,
		"00":     true, // digit-leading lexes as a number
		"a`b":    true, // embedded quote
		"a b":    true, // space
		"select": true, // keyword, any case
		"FROM":   true,
		"Where":  true,
		"isnull": true,  // postfix operator word
		"rowid":  true,  // special column
		"selec":  false, // near-keyword is fine bare
	} {
		if got := identNeedsQuote(name); got != want {
			t.Errorf("identNeedsQuote(%q) = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]string{
		"c0":     "c0",
		"00":     "`00`",
		"a`b":    "`a``b`",
		"select": "`select`",
	} {
		if got := quoteIdent(name); got != want {
			t.Errorf("writeIdent(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestRenderQuotesIdentifiers covers every statement position that renders
// an identifier: each statement built with hostile names must render with
// quoting (spot-checked) — the render→reparse fixed point itself is pinned
// by the sqlparse round-trip suite and FuzzParseRoundTrip.
func TestRenderQuotesIdentifiers(t *testing.T) {
	cases := []struct {
		st   Stmt
		want string
	}{
		{
			st: &Select{
				Cols:  []ResultCol{{X: Col("from", "00"), Alias: "order"}},
				From:  []TableRef{{Name: "select", Alias: "group"}},
				Where: &Binary{Op: OpEq, L: Col("", "a`b"), R: Lit(sqlval.Int(1))},
			},
			want: "SELECT `from`.`00` AS `order` FROM `select` AS `group` WHERE (`a``b` = 1)",
		},
		{
			st:   &Insert{Table: "values", Columns: []string{"not", "c0"}, Rows: [][]Expr{{Lit(sqlval.Int(1)), Lit(sqlval.Int(2))}}},
			want: "INSERT INTO `values`(`not`, c0) VALUES (1, 2)",
		},
		{
			st:   &Update{Table: "where", Sets: []Assignment{{Column: "and", Value: Lit(sqlval.Int(2))}}},
			want: "UPDATE `where` SET `and` = 2",
		},
		{
			st:   &Delete{Table: "order"},
			want: "DELETE FROM `order`",
		},
		{
			st: &CreateTable{Name: "group", Columns: []ColumnDef{
				{Name: "order", TypeName: "INT"}}, PrimaryKey: []string{"order"}},
			want: "CREATE TABLE `group`(`order` INT, PRIMARY KEY (`order`))",
		},
		{
			st:   &CreateIndex{Name: "by", Table: "limit", Parts: []IndexedExpr{{X: Col("", "desc"), Desc: true}}},
			want: "CREATE INDEX `by` ON `limit`(`desc` DESC)",
		},
		{
			st:   &AlterTable{Table: "t", Action: AlterRenameColumn, OldName: "00", NewName: "to"},
			want: "ALTER TABLE t RENAME COLUMN `00` TO `to`",
		},
		{
			st:   &Drop{Obj: DropTable, Name: "table"},
			want: "DROP TABLE `table`",
		},
		{
			st:   &Maintenance{Op: MaintReindex, Table: "primary"},
			want: "REINDEX `primary`",
		},
	}
	for _, tc := range cases {
		if got := SQL(tc.st, dialect.SQLite); got != tc.want {
			t.Errorf("render:\n got %q\nwant %q", got, tc.want)
		}
	}
}

// TestRenderFoldsNegatedLiterals pins the other fixed-point repair the
// un-sidestepped fuzzers surfaced: `- 5` folds on reparse, so the
// renderer folds first.
func TestRenderFoldsNegatedLiterals(t *testing.T) {
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{&Unary{Op: OpNeg, X: Lit(sqlval.Int(5))}, "-5"},
		{&Unary{Op: OpNeg, X: Lit(sqlval.Int(-5))}, "5"},
		{&Unary{Op: OpNeg, X: Lit(sqlval.Real(1e19))}, "-1e+19"},
		{&Unary{Op: OpNeg, X: Lit(sqlval.Int(-9223372036854775808))}, "(- -9223372036854775808)"},
		{&Unary{Op: OpNeg, X: Lit(sqlval.Text("a"))}, "(- 'a')"},
	} {
		if got := ExprSQL(tc.e, dialect.SQLite); got != tc.want {
			t.Errorf("render = %q, want %q", got, tc.want)
		}
	}
}

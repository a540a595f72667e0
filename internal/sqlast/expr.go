// Package sqlast defines the abstract syntax tree shared by the engine's
// parser, the engine's evaluator, the PQS expression generator
// (Algorithm 1 of the paper), and the PQS oracle interpreter (Algorithm 2).
// PQS builds these trees directly, renders them to SQL text, and the engine
// re-parses that text — the same round trip SQLancer performs over a DBMS
// connection.
package sqlast

import (
	"repro/internal/sqlval"
)

// Expr is any SQL expression node.
type Expr interface {
	isExpr()
}

// Literal is a constant value.
type Literal struct {
	Val sqlval.Value
}

// ColumnRef names a column, optionally qualified by table name.
//
// MaybeString marks a double-quoted token in the SQLite dialect, which the
// engine resolves as a column when possible and silently demotes to a
// string literal otherwise — the misfeature behind Listing 8 of the paper.
type ColumnRef struct {
	Table       string // may be empty
	Column      string
	MaybeString bool
}

// UnaryOp enumerates prefix and postfix unary operators.
type UnaryOp uint8

// Unary operators.
const (
	OpNot     UnaryOp = iota // NOT x
	OpNeg                    // -x
	OpPos                    // +x
	OpBitNot                 // ~x
	OpIsNull                 // x ISNULL / x IS NULL
	OpNotNull                // x NOTNULL / x IS NOT NULL
)

// Unary applies a unary operator to a subexpression.
type Unary struct {
	Op UnaryOp
	X  Expr
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIs         // x IS y (SQLite compares values; others restrict to NULL/TRUE/FALSE)
	OpIsNot      // x IS NOT y
	OpNullSafeEq // x <=> y (MySQL)
	OpLike
	OpNotLike
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat // x || y (string concat; MySQL renders as OR instead)
	OpBitAnd
	OpBitOr
	OpShl
	OpShr
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	Not    bool
	X      Expr
	Lo, Hi Expr
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	Not  bool
	X    Expr
	List []Expr
}

// Cast is CAST(x AS typename).
type Cast struct {
	X        Expr
	TypeName string
}

// Collate attaches a collation to an expression (SQLite).
type Collate struct {
	X    Expr
	Coll sqlval.Collation
}

// Case is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr // nil if absent
}

// WhenClause is one WHEN/THEN arm of a CASE expression.
type WhenClause struct {
	When Expr
	Then Expr
}

// FuncCall invokes a scalar or aggregate function.
type FuncCall struct {
	Name string // canonical upper-case name
	Args []Expr
}

func (*Literal) isExpr()   {}
func (*ColumnRef) isExpr() {}
func (*Unary) isExpr()     {}
func (*Binary) isExpr()    {}
func (*Between) isExpr()   {}
func (*InList) isExpr()    {}
func (*Cast) isExpr()      {}
func (*Collate) isExpr()   {}
func (*Case) isExpr()      {}
func (*FuncCall) isExpr()  {}

// Lit is shorthand for a literal node.
func Lit(v sqlval.Value) *Literal { return &Literal{Val: v} }

// Col is shorthand for a qualified column reference.
func Col(table, column string) *ColumnRef { return &ColumnRef{Table: table, Column: column} }

// WalkExprs calls fn on e and every descendant expression, pre-order.
// fn returning false prunes the subtree.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *Unary:
		WalkExprs(n.X, fn)
	case *Binary:
		WalkExprs(n.L, fn)
		WalkExprs(n.R, fn)
	case *Between:
		WalkExprs(n.X, fn)
		WalkExprs(n.Lo, fn)
		WalkExprs(n.Hi, fn)
	case *InList:
		WalkExprs(n.X, fn)
		for _, x := range n.List {
			WalkExprs(x, fn)
		}
	case *Cast:
		WalkExprs(n.X, fn)
	case *Collate:
		WalkExprs(n.X, fn)
	case *Case:
		WalkExprs(n.Operand, fn)
		for _, w := range n.Whens {
			WalkExprs(w.When, fn)
			WalkExprs(w.Then, fn)
		}
		WalkExprs(n.Else, fn)
	case *FuncCall:
		for _, x := range n.Args {
			WalkExprs(x, fn)
		}
	}
}

// ColumnsUsed returns the distinct table-qualified column names referenced
// by e, in first-appearance order.
func ColumnsUsed(e Expr) []ColumnRef {
	var out []ColumnRef
	seen := map[ColumnRef]bool{}
	WalkExprs(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok && !seen[*c] {
			seen[*c] = true
			out = append(out, *c)
		}
		return true
	})
	return out
}

// Depth returns the height of the expression tree (a literal has depth 1).
func Depth(e Expr) int {
	if e == nil {
		return 0
	}
	max := 0
	sub := func(x Expr) {
		if d := Depth(x); d > max {
			max = d
		}
	}
	switch n := e.(type) {
	case *Literal, *ColumnRef:
		return 1
	case *Unary:
		sub(n.X)
	case *Binary:
		sub(n.L)
		sub(n.R)
	case *Between:
		sub(n.X)
		sub(n.Lo)
		sub(n.Hi)
	case *InList:
		sub(n.X)
		for _, x := range n.List {
			sub(x)
		}
	case *Cast:
		sub(n.X)
	case *Collate:
		sub(n.X)
	case *Case:
		sub(n.Operand)
		for _, w := range n.Whens {
			sub(w.When)
			sub(w.Then)
		}
		sub(n.Else)
	case *FuncCall:
		for _, x := range n.Args {
			sub(x)
		}
	}
	return max + 1
}

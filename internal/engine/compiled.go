// Expression wiring for the executor: relLayout, the one eval.Layout both
// evaluation paths bind columns through; exprEval — the per-SELECT facade
// that binds each clause into an exprFn value, which evaluates through a
// compiled program by default and through the tree-walk interpreter when
// compilation is disabled (WithoutCompiledEval, the -disable compile
// escape hatch); and tableScope, the single-table layout DML, CHECK and
// index-key expressions evaluate in. Programs are compiled into the
// statement memory's code buffer (stmtMem.code) and released with the
// statement's other slabs.
package engine

import (
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// relLayout exposes a statement's FROM relations as the eval.Layout that
// eval.Compile binds slots against once and the tree-walk Evaluator.Eval
// resolves through on every evaluation, so both paths bind identically.
type relLayout struct {
	rels []*relation
}

// NumRels implements eval.Layout.
func (l relLayout) NumRels() int { return len(l.rels) }

// Resolve implements eval.Layout.
func (l relLayout) Resolve(table, column string) (eval.Slot, eval.Meta, eval.Resolution) {
	ri, ci, ambiguous := findColumn(l.rels, table, column)
	if ambiguous {
		return eval.Slot{}, eval.Meta{}, eval.Ambiguous
	}
	if ri < 0 {
		return eval.Slot{}, eval.Meta{}, eval.Missing
	}
	col := l.rels[ri].columns[ci]
	return eval.Slot{Rel: ri, Col: ci}, eval.Meta{
		Coll:        col.Collate,
		Affinity:    col.Affinity,
		Unsigned:    col.Unsigned,
		TypeName:    col.TypeName,
		TableEngine: l.rels[ri].engine,
	}, eval.Found
}

// exprEval evaluates the expressions of one SELECT execution. It exists so
// the query path binds each clause once into an exprFn and evaluates that
// once per row combination over a reusable frame — with compilation on,
// the exprFn runs a slot-bound program from the statement's code buffer;
// with compilation off, it walks the tree, resolving each column reference
// through the same layout as it goes.
type exprEval struct {
	e        *Engine
	compiled bool
	lay      relLayout
	frame    eval.Frame
}

// newExprEval prepares expression evaluation over a relation set.
func (e *Engine) newExprEval(rels []*relation) *exprEval {
	x := &e.mem.exprs.alloc(1)[0]
	*x = exprEval{e: e, compiled: !e.noCompile, lay: relLayout{rels: rels}}
	x.frame.Rows = e.mem.frames.alloc(len(rels))
	return x
}

// setRow points the evaluation state at one row combination; the exprFns
// returned by bind evaluate against the most recent setRow.
// Callers bind the row once per combination, however many expressions
// they then evaluate on it. A nil row (or a combo shorter than the
// layout) is the NULL-extended side of an outer join.
func (x *exprEval) setRow(combo []*rowVals) {
	rows := x.frame.Rows
	for i := range rows {
		if i < len(combo) && combo[i] != nil {
			rows[i] = combo[i].vals
		} else {
			rows[i] = nil
		}
	}
}

// exprFn is one clause bound for per-row evaluation against its
// exprEval's current row: a program compiled into the statement's code
// buffer, or, with compilation off, the expression the tree walk
// evaluates. It is a value, so binding a clause allocates nothing. The
// zero exprFn is unbound.
type exprFn struct {
	x    *exprEval
	prog eval.Program // compiled mode
	tree sqlast.Expr  // tree-walk mode
}

// bound reports whether f holds a clause.
func (f *exprFn) bound() bool { return f.x != nil }

// value computes the clause against the current row.
func (f *exprFn) value() (sqlval.Value, error) {
	if f.tree != nil {
		return f.x.e.ev.Eval(f.tree, &f.x.lay, &f.x.frame)
	}
	return f.prog.Eval(&f.x.frame)
}

// bool computes the clause as a filter condition.
func (f *exprFn) bool() (sqlval.TriBool, error) {
	if f.tree != nil {
		return f.x.e.ev.EvalBool(f.tree, &f.x.lay, &f.x.frame)
	}
	return f.prog.EvalBool(&f.x.frame)
}

// bind binds expr for evaluation against the current row (see setRow):
// exprFn.value computes it, exprFn.bool computes it as a filter. With
// compilation on, bind errors (missing or ambiguous columns) surface here
// — once per statement — rather than per row. That is the one intended
// behavioural difference from tree-walk mode: over an empty row set the
// interpreter never evaluates the clause and a bad reference passes
// silently, while the compiled path rejects the statement up front (what
// a real DBMS's prepare step does). The program lives in the statement
// memory's code buffer until the statement releases it.
func (x *exprEval) bind(expr sqlast.Expr) (exprFn, error) {
	if !x.compiled {
		return exprFn{x: x, tree: expr}, nil
	}
	prog, err := x.e.ev.Compile(expr, &x.lay, &x.e.mem.code) // a pointer: no boxing per clause
	if err != nil {
		return exprFn{}, err
	}
	return exprFn{x: x, prog: prog}, nil
}

// tableScope is the single-relation layout and frame that DML row
// predicates, SET expressions, CHECK constraints and index keys evaluate
// in: the table is the only relation, so a qualifier other than its name
// does not resolve. The Engine owns one and rebinds it per row, so those
// evaluations allocate nothing per row.
type tableScope struct {
	rel   relation
	rels  [1]*relation
	lay   relLayout
	rows  [1][]sqlval.Value
	frame eval.Frame
}

// bind points the scope at one row of t and returns the layout and frame
// to evaluate it in. Both stay valid until the next bind.
func (s *tableScope) bind(t *schema.Table, vals []sqlval.Value) (eval.Layout, *eval.Frame) {
	s.rel = relation{name: t.Name, table: t.Name, columns: t.Columns, engine: t.Engine}
	s.rels[0] = &s.rel
	s.lay.rels = s.rels[:]
	s.rows[0] = vals
	s.frame.Rows = s.rows[:]
	return &s.lay, &s.frame
}

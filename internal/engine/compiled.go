// Expression wiring for the executor: relLayout, the one eval.Layout both
// evaluation paths bind columns through; exprEval — the per-SELECT facade
// that hands the query path closures which evaluate through compiled
// programs by default and through the tree-walk interpreter when
// compilation is disabled (WithoutCompiledEval, the -disable compile
// escape hatch); and tableScope, the single-table layout DML, CHECK and
// index-key expressions evaluate in. Programs are compiled per statement
// and die with it.
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
func (l relLayout) Resolve(table, column string) (eval.Slot, eval.Meta, error) {
	ri, ci, ambiguous := findColumn(l.rels, table, column)
	if ambiguous {
		return eval.Slot{}, eval.Meta{}, eval.ErrAmbiguousColumn(column)
	}
	if ri < 0 {
		return eval.Slot{}, eval.Meta{}, eval.ErrNoSuchColumn(table, column)
	}
	col := l.rels[ri].columns[ci]
	return eval.Slot{Rel: ri, Col: ci}, eval.Meta{
		Coll:        col.Collate,
		Affinity:    col.Affinity,
		Unsigned:    col.Unsigned,
		TypeName:    col.TypeName,
		TableEngine: l.rels[ri].engine,
	}, nil
}

// exprEval evaluates the expressions of one SELECT execution. It exists so
// the query path asks for a closure once per clause and calls it once per
// row combination over a reusable frame — with compilation on, the closure
// runs a slot-bound program; with compilation off, it walks the tree,
// resolving each column reference through the same layout as it goes.
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

// setRow points the evaluation state at one row combination; the closures
// returned by valueFn/boolFn evaluate against the most recent setRow.
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

// valueFn returns a closure computing expr against the current row (see
// setRow). With compilation on, bind errors (missing or ambiguous
// columns) surface here — once per statement — rather than per row. That
// is the one intended behavioural difference from tree-walk mode: over an
// empty row set the interpreter never evaluates the clause and a bad
// reference passes silently, while the compiled path rejects the
// statement up front (what a real DBMS's prepare step does).
func (x *exprEval) valueFn(expr sqlast.Expr) (func() (sqlval.Value, error), error) {
	if !x.compiled {
		return func() (sqlval.Value, error) {
			return x.e.ev.Eval(expr, &x.lay, &x.frame)
		}, nil
	}
	prog, err := x.e.ev.Compile(expr, &x.lay) // a pointer: no boxing per clause
	if err != nil {
		return nil, err
	}
	return func() (sqlval.Value, error) {
		return prog.Eval(&x.frame)
	}, nil
}

// boolFn is valueFn for filter conditions.
func (x *exprEval) boolFn(expr sqlast.Expr) (func() (sqlval.TriBool, error), error) {
	if !x.compiled {
		return func() (sqlval.TriBool, error) {
			return x.e.ev.EvalBool(expr, &x.lay, &x.frame)
		}, nil
	}
	prog, err := x.e.ev.Compile(expr, &x.lay) // a pointer: no boxing per clause
	if err != nil {
		return nil, err
	}
	return func() (sqlval.TriBool, error) {
		return prog.EvalBool(&x.frame)
	}, nil
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

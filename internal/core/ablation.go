package core

import (
	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/sqlval"
)

// engineEvaluatorFor builds an engine-side evaluator sharing the tester's
// fault set — the "shared evaluator" ablation, which demonstrates why the
// oracle interpreter must be independent: with the engine's evaluator as
// the oracle, evaluator-level logic bugs become invisible. It returns the
// evaluator with the layout and frame of the bound pivot row.
func engineEvaluatorFor(cfg Config, ctx *interp.Context) (*eval.Evaluator, eval.Layout, *eval.Frame) {
	ev := &eval.Evaluator{
		D:                 cfg.Dialect,
		Faults:            cfg.Faults,
		CaseSensitiveLike: ctx.CaseSensitiveLike,
	}
	return ev, pivotLayout{ctx: ctx}, &eval.Frame{Rows: [][]sqlval.Value{ctx.Values(nil)}}
}

// pivotLayout is the pivot row as an eval.Layout (ablation support only):
// one relation whose columns are the context's bindings, at the positions
// interp.Context.Index reports. An ambiguous reference fails as missing,
// so a double-quoted token naming two columns demotes to a string here,
// as it does in the interpreter.
type pivotLayout struct {
	ctx *interp.Context
}

// NumRels implements eval.Layout.
func (pivotLayout) NumRels() int { return 1 }

// Resolve implements eval.Layout.
func (l pivotLayout) Resolve(table, column string) (eval.Slot, eval.Meta, eval.Resolution) {
	i, ci := l.ctx.Index(table, column)
	if i < 0 {
		return eval.Slot{}, eval.Meta{}, eval.Missing
	}
	return eval.Slot{Col: i}, eval.Meta{
		Coll:     ci.Coll,
		Affinity: ci.Affinity,
		Unsigned: ci.Unsigned,
	}, eval.Found
}

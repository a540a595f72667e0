package core

import (
	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/sqlval"
)

// engineEvaluatorFor builds an engine-side evaluator sharing the tester's
// fault set — the "shared evaluator" ablation, which demonstrates why the
// oracle interpreter must be independent: with the engine's evaluator as
// the oracle, evaluator-level logic bugs become invisible.
func engineEvaluatorFor(cfg Config, ctx *interp.Context) *eval.Evaluator {
	return &eval.Evaluator{
		D:                 cfg.Dialect,
		Faults:            cfg.Faults,
		CaseSensitiveLike: ctx.CaseSensitiveLike,
	}
}

// ctxEnv adapts the pivot-row interpreter context into the engine
// evaluator's Env interface (ablation support only).
type ctxEnv struct {
	ctx *interp.Context
}

// ColumnValue implements eval.Env.
func (c *ctxEnv) ColumnValue(table, column string) (sqlval.Value, bool) {
	ci, ok := c.ctx.Lookup(table, column)
	if !ok {
		return sqlval.Null(), false
	}
	return ci.Val, true
}

// ColumnMeta implements eval.Env.
func (c *ctxEnv) ColumnMeta(table, column string) (eval.Meta, bool) {
	ci, ok := c.ctx.Lookup(table, column)
	if !ok {
		return eval.Meta{}, false
	}
	return eval.Meta{
		Coll:     ci.Coll,
		Affinity: ci.Affinity,
		Unsigned: ci.Unsigned,
	}, true
}

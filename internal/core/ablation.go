package core

import (
	"strings"

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

func (c *ctxEnv) find(table, column string) (interp.ColInfo, bool) {
	if table != "" {
		ci, ok := c.ctx.Cols[strings.ToLower(table)+"."+strings.ToLower(column)]
		return ci, ok
	}
	suffix := "." + strings.ToLower(column)
	var found interp.ColInfo
	n := 0
	for k, ci := range c.ctx.Cols {
		if strings.HasSuffix(k, suffix) {
			found = ci
			n++
		}
	}
	return found, n == 1
}

// ColumnValue implements eval.Env.
func (c *ctxEnv) ColumnValue(table, column string) (sqlval.Value, bool) {
	ci, ok := c.find(table, column)
	if !ok {
		return sqlval.Null(), false
	}
	return ci.Val, true
}

// ColumnMeta implements eval.Env.
func (c *ctxEnv) ColumnMeta(table, column string) (eval.Meta, bool) {
	ci, ok := c.find(table, column)
	if !ok {
		return eval.Meta{}, false
	}
	return eval.Meta{
		Coll:     ci.Coll,
		Affinity: ci.Affinity,
		Unsigned: ci.Unsigned,
	}, true
}

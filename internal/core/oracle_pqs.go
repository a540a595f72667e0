package core

import (
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/oracle"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// PQS registers itself with the oracle registry from here rather than from
// internal/oracle: the pivot machinery lives in this package, and core
// already depends on oracle's verdict layer, so the registration must flow
// this way to avoid an import cycle — the same pattern sut backends use
// (drivers register from their own package).
func init() {
	oracle.Register("pqs", func(o oracle.Options) oracle.Oracle {
		return newPQS(Config{MaxExprDepth: o.MaxExprDepth}, newStats())
	})
}

// pqsOracle is PQS's query phase as a registry oracle: each Check runs one
// pivot iteration (steps 2–7 of Figure 1) against the database's current
// state, drawing its pivot rows from env's per-database target snapshot,
// or from its own, captured afresh at every check, when env has none (a
// one-shot check cannot know what ran on the database since the last). A
// Tester builds one from its Config and Stats for its query phase; the
// registry factory builds the same type for dbshell's .oracle and
// sqlancer-go -oracle.
//
// An instance reuses its pivot-iteration memory: the interpreter context,
// the pivot list, the generator's column and hint pools and node arena,
// the pivot query's Select scaffold (its clause slices), the expected
// tuple and the plain-column marks are all overwritten by the next check.
// So a pivot query's AST and scaffold live until the next check; a
// detection renders its trace at once and copies Expected, so nothing a
// Bug keeps aliases the oracle's memory.
type pqsOracle struct {
	cfg   Config
	stats *Stats
	rnd   *gen.Rand // env's, for the current check
	own   oracle.Targets

	pivots    []pivotRow
	ctx       interp.Context
	colsBuf   []gen.ColumnPick
	hintsBuf  []sqlval.Value
	eg        gen.ExprGen
	sel       sqlast.Select
	expected  []sqlval.Value
	plainCols []bool
	joinCands []joinCand
}

// newPQS creates a PQS oracle with cfg's pivot-loop switches, counting
// rectification outcomes and discarded expressions into stats.
func newPQS(cfg Config, stats *Stats) *pqsOracle {
	return &pqsOracle{cfg: cfg, stats: stats}
}

// Name implements oracle.Oracle.
func (*pqsOracle) Name() string { return "pqs" }

package core

import (
	"repro/internal/oracle"
	"repro/internal/sut"
)

// PQS registers itself with the oracle registry from here rather than from
// internal/oracle: the pivot machinery lives in this package, and core
// already depends on oracle's verdict layer, so the registration must flow
// this way to avoid an import cycle — the same pattern sut backends use
// (drivers register from their own package).
func init() {
	oracle.Register("pqs", func(o oracle.Options) oracle.Oracle {
		return pqsOracle{opts: o}
	})
}

// pqsOracle adapts one pivot iteration (steps 2–7 of Figure 1) to the
// pluggable oracle interface. Campaigns still run the native loop in
// Tester.runOn — it amortizes the pivot-source snapshot across
// QueriesPerDB iterations — so this adapter serves the uniform surface:
// dbshell's .oracle command and any caller holding an already-built
// database.
type pqsOracle struct {
	opts oracle.Options
}

// Name implements oracle.Oracle.
func (pqsOracle) Name() string { return "pqs" }

// Check implements oracle.Oracle: one pivot iteration against db's
// current state.
func (p pqsOracle) Check(db sut.DB, env *oracle.Env) (*oracle.Report, error) {
	depth := env.MaxExprDepth
	if p.opts.MaxExprDepth > 0 {
		depth = p.opts.MaxExprDepth
	}
	t := NewTester(Config{Session: sut.Session{Dialect: env.Dialect}, MaxExprDepth: depth})
	if env.Rnd != nil {
		t.rnd = env.Rnd
	}
	env.Record()
	bug, err := t.CheckPivot(db)
	if bug != nil {
		bug.DetectedBy = "pqs"
		bug.Trace = append(env.SetupTrace(), bug.Trace...)
	}
	return bug, err
}

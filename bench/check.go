package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/reduce"
	"repro/internal/runner"
)

// finding is one failed operation: a detection on the fault-free engine.
type finding struct {
	Workload string `json:"workload"`
	Dialect  string `json:"dialect"`
	Oracle   string `json:"oracle"`
	Seed     int64  `json:"seed"`
	Message  string `json:"message"`
	// Replays reports whether the detection's trace reproduces it through
	// reduce.CheckerFor (string replay on a fresh database).
	Replays bool `json:"replays"`
}

// audit is the outcome of checking a run's results.
type audit struct {
	attempted int
	findings  []finding
	// problems are outputs that contradict what the program promises: a
	// detection that does not re-run from its seed, work counts that do
	// not add up, single-worker lifecycles that disagree with the sweep.
	// Any problem makes the run incorrect.
	problems []string
}

func (a *audit) problem(format string, args ...any) {
	a.problems = append(a.problems, fmt.Sprintf(format, args...))
}

// rerun runs the lifecycle the scheduler ran for seed of campaign c on a
// fresh tester.
func rerun(c runner.Campaign, seed int64) (*core.Bug, error) {
	cfg := lifecycleConfig(c)
	cfg.Seed = seed
	cfg.Oracle = oracleAt(c, seed-c.BaseSeed)
	return core.NewTester(cfg).RunDatabase()
}

// check audits one pass of workload w. Every database is one operation; a
// detection on the fault-free engine is a failed one.
func (a *audit) check(w *workload, results []runner.Result) {
	for _, r := range results {
		c := r.Campaign
		a.attempted += r.Databases
		if r.Databases != r.Stats.Databases {
			a.problem("%s %v seed %d: %d databases run but %d counted by the tester", c.Dialect, c.Oracles, c.BaseSeed, r.Databases, r.Stats.Databases)
		}
		if !r.Detected {
			if r.Databases != c.MaxDatabases {
				a.problem("%s %v seed %d: %d of %d databases run without a detection", c.Dialect, c.Oracles, c.BaseSeed, r.Databases, c.MaxDatabases)
			}
			continue
		}
		if again, err := rerun(c, r.Seed); err != nil || again == nil || again.Message != r.Bug.Message {
			a.problem("%s %v seed %d: detection %q does not re-run from its seed", c.Dialect, c.Oracles, r.Seed, r.Bug.Message)
		}
		a.findings = append(a.findings, finding{
			Workload: w.name, Dialect: c.Dialect.String(), Oracle: oracleAt(c, r.Seed-c.BaseSeed),
			Seed: r.Seed, Message: r.Bug.Message,
			Replays: reduce.CheckerFor(r.Bug, c.Dialect, nil)(r.Reduced),
		})
	}
}

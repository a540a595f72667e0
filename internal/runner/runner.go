// Package runner drives PQS campaigns: parallel workers, each on its own
// database (the paper parallelizes by "running each thread on a distinct
// database"), hunting one injected fault until detection or budget
// exhaustion. Campaigns execute on a shared work-stealing Scheduler over
// pooled, resettable engine lifecycles — one campaign per Run call, or a
// whole fault corpus multiplexed through one pool per RunCorpus sweep.
// Campaign results feed every table and figure reproduction.
package runner

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
)

// Campaign configures one hunt.
type Campaign struct {
	Dialect dialect.Dialect
	// Fault is the single injected bug to hunt ("" = none, soundness run).
	Fault faults.Fault
	// MaxDatabases bounds the total databases generated across workers.
	MaxDatabases int
	// Workers is the parallelism degree (default GOMAXPROCS, capped at 8).
	// Inside a multi-campaign Scheduler sweep the shared pool's size wins
	// and this field is ignored.
	Workers int
	// BaseSeed offsets worker seeds for determinism.
	BaseSeed int64
	// Oracles are the testing oracles to rotate across the campaign's
	// databases ("pqs", "tlp", "norec"); database i runs under
	// Oracles[i % len(Oracles)], so parallel workers naturally round-robin
	// the oracle mix. Empty means PQS only. Overrides Tester.Oracle.
	Oracles []string
	// Tester overrides generation parameters (Dialect/Seed/Faults are
	// filled in by the runner).
	Tester core.Config
	// Reduce shrinks the detection's trace before returning.
	Reduce bool
}

// Result is a campaign outcome. Detected, Bug, Seed, and Reduced are
// deterministic for a given BaseSeed regardless of worker count (the
// scheduler reports the lowest detecting seed); Databases, Stats, and
// Elapsed count the actual work done, which varies with scheduling.
type Result struct {
	Campaign Campaign
	Detected bool
	Bug      *core.Bug
	// Seed is the seed of the detecting database (BaseSeed + offset), or
	// -1 when nothing was detected.
	Seed      int64
	Reduced   []string
	Databases int
	// Errors counts database lifecycles that failed instead of finishing
	// their checks (an unknown oracle, a backend that cannot open a
	// database). A failed lifecycle still counts against the budget, so a
	// campaign with Errors > 0 and no detection did not really run clean.
	Errors int
	// Err is the error of the lowest failing seed (nil when Errors == 0).
	// Like Seed it does not depend on the worker count, as long as that
	// seed lies below any detecting one: seeds above a detection may or
	// may not run.
	Err     error
	Stats   core.Stats
	Elapsed time.Duration
}

// Run executes the campaign to completion (no external cancellation).
func Run(c Campaign) Result {
	return RunContext(context.Background(), c)
}

// RunContext executes the campaign until detection, budget exhaustion, or
// context cancellation. On cancellation the seed feed stops immediately
// and in-flight databases finish; the partial Result reports the work
// done so far (Detected stays false unless a worker already found the
// bug).
func RunContext(ctx context.Context, c Campaign) Result {
	s := &Scheduler{Workers: c.Workers}
	return s.Sweep(ctx, []Campaign{c})[0]
}

// CorpusCampaigns builds the standard campaign per registered fault of a
// dialect, routing each fault to the testing oracle its registry entry
// expects (metamorphic faults are invisible to PQS by construction).
func CorpusCampaigns(d dialect.Dialect, maxDatabases int, baseSeed int64, doReduce bool) []Campaign {
	var out []Campaign
	for _, info := range faults.ForDialect(d) {
		out = append(out, Campaign{
			Dialect:      d,
			Fault:        info.ID,
			MaxDatabases: maxDatabases,
			BaseSeed:     baseSeed,
			Reduce:       doReduce,
			Oracles:      []string{oracle.ForFault(info)},
		})
	}
	return out
}

// RunCorpus hunts every registered fault of a dialect through one shared
// scheduler pool (one work-stealing sweep, not one worker pool per
// fault).
func RunCorpus(d dialect.Dialect, maxDatabases int, baseSeed int64, doReduce bool) []Result {
	return RunCorpusContext(context.Background(), d, maxDatabases, baseSeed, doReduce)
}

// RunCorpusContext is RunCorpus with cancellation: the sweep stops
// issuing databases when ctx is done, in-flight databases finish, and
// every fault reports its partial Result.
func RunCorpusContext(ctx context.Context, d dialect.Dialect, maxDatabases int, baseSeed int64, doReduce bool) []Result {
	s := &Scheduler{}
	return s.Sweep(ctx, CorpusCampaigns(d, maxDatabases, baseSeed, doReduce))
}

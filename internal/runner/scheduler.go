package runner

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/reduce"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// Scheduler multiplexes many campaigns over one shared worker pool. Each
// campaign (fault × dialect × oracle mix) becomes a task whose units are
// individual database seeds; workers own a round-robin partition of the
// tasks and steal units from any other task once their own are drained,
// so the pool stays saturated through the tail of a corpus sweep instead
// of standing up and tearing down one pool per campaign.
//
// Determinism: every unit runs with Seed = BaseSeed + offset through a
// pooled core.Lifecycle that is byte-equivalent to a throwaway NewTester,
// and a detection is reported for the *lowest* detecting seed offset —
// seeds are issued in order, so every offset below a detection has run —
// which makes Detected/Bug/Seed independent of worker count and of which
// worker ran which unit. Databases/Stats/Elapsed remain schedule-
// dependent (they count discarded in-flight work).
type Scheduler struct {
	// Workers is the shared pool's size (0 = GOMAXPROCS, capped at 8).
	Workers int
}

// schedTask is one campaign inside a sweep.
type schedTask struct {
	idx  int
	c    Campaign
	fs   *faults.Set
	cfg  core.Config
	pool *sut.Pool

	mu        sync.Mutex
	started   time.Time // when the task's first unit was issued
	lastDone  time.Time // when the task's most recent unit completed
	nextSeed  int64     // next seed offset to issue (issued strictly in order)
	inFlight  int
	stopped   bool  // a detection landed: stop issuing new offsets
	bestSeed  int64 // lowest detecting offset so far; -1 = none
	bug       *core.Bug
	errSeed   int64 // lowest failing offset so far; -1 = none
	err       error
	errors    int
	databases int
	stats     core.Stats
	finished  bool
}

// take issues the next seed offset, or reports the task has none left.
func (t *schedTask) take(ctx context.Context) (int64, bool) {
	if ctx.Err() != nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.nextSeed >= int64(t.c.MaxDatabases) {
		return 0, false
	}
	if t.started.IsZero() {
		t.started = time.Now()
	}
	off := t.nextSeed
	t.nextSeed++
	t.inFlight++
	return off, true
}

// hasUnits reports whether take could currently succeed.
func (t *schedTask) hasUnits() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.stopped && t.nextSeed < int64(t.c.MaxDatabases)
}

// complete records one finished unit and reports whether the caller just
// completed the whole task (and must finalize it). Detections and errors
// keep the lowest offset: offsets are issued in order, so by the time any
// offset detects, every lower offset has been issued and will complete,
// making the minimum over completed units the canonical, schedule-
// independent answer.
func (t *schedTask) complete(off int64, bug *core.Bug, err error, stats *core.Stats) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inFlight--
	t.databases++
	t.lastDone = time.Now()
	t.stats.Add(stats)
	if err != nil {
		t.errors++
		if t.errSeed < 0 || off < t.errSeed {
			t.errSeed, t.err = off, err
		}
	}
	if bug != nil {
		if t.bestSeed < 0 || off < t.bestSeed {
			t.bestSeed, t.bug = off, bug
		}
		t.stopped = true
	}
	if t.inFlight == 0 && (t.stopped || t.nextSeed >= int64(t.c.MaxDatabases)) && !t.finished {
		t.finished = true
		return true
	}
	return false
}

// Sweep runs every campaign to completion (detection, budget exhaustion,
// or context cancellation) through one shared worker pool and returns one
// Result per campaign, in input order. Campaign.Workers is ignored inside
// a sweep — the scheduler's pool is the parallelism degree.
func (s *Scheduler) Sweep(ctx context.Context, campaigns []Campaign) []Result {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}

	tasks := make([]*schedTask, len(campaigns))
	for i, c := range campaigns {
		if c.MaxDatabases <= 0 {
			c.MaxDatabases = 200
		}
		var fs *faults.Set
		if c.Fault != "" {
			fs = faults.NewSet(c.Fault)
		}
		cfg := c.Tester
		cfg.Dialect = c.Dialect
		cfg.Faults = fs
		for _, o := range c.Oracles {
			if o == "recovery" {
				// The recovery-equivalence oracle needs the durable pager
				// backend, and each of its checks crashes and recovers the
				// database. One crash round per lifecycle is forced: a
				// second round's reproduction trace (setup + that round's
				// DML) would silently omit the first round's mutations.
				if cfg.Storage == "" {
					cfg.Storage = "pager"
				}
				cfg.QueriesPerDB = 1
			}
		}
		tasks[i] = &schedTask{
			idx:      i,
			c:        c,
			fs:       fs,
			cfg:      cfg,
			pool:     sut.NewPool(cfg.Backend, cfg.Session),
			bestSeed: -1,
			errSeed:  -1,
			stats:    core.Stats{Rectified: map[sqlval.TriBool]int{}},
		}
	}

	results := make([]Result, len(campaigns))
	finalize := func(t *schedTask) {
		res := Result{
			Campaign:  t.c,
			Databases: t.databases,
			Errors:    t.errors,
			Err:       t.err,
			Stats:     t.stats,
			Seed:      -1,
		}
		// Elapsed is the task's own span (first unit issued → last unit
		// completed), not the whole sweep's — per-fault throughput stays
		// meaningful in a multi-campaign or cancelled sweep. A task that
		// never ran reports zero.
		if !t.started.IsZero() {
			res.Elapsed = t.lastDone.Sub(t.started)
		}
		if t.bestSeed >= 0 {
			res.Detected = true
			res.Bug = t.bug
			res.Seed = t.c.BaseSeed + t.bestSeed
			if t.c.Reduce {
				res.Reduced = reduce.BugFully(t.bug, t.c.Dialect, t.fs)
			} else {
				res.Reduced = t.bug.Trace
			}
		}
		results[t.idx] = res
		t.pool.Close()
	}

	// pick scans the worker's own partition first (task affinity keeps
	// pooled engines warm), then steals a unit from any other task.
	pick := func(w int) *schedTask {
		for i := w; i < len(tasks); i += workers {
			if tasks[i].hasUnits() {
				return tasks[i]
			}
		}
		for i := range tasks {
			if t := tasks[(w+i)%len(tasks)]; t.hasUnits() {
				return t
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lcs := map[*schedTask]*core.Lifecycle{}
			for {
				t := pick(w)
				if t == nil {
					return // availability only shrinks: nothing left to help with
				}
				off, ok := t.take(ctx)
				if !ok {
					if ctx.Err() != nil {
						return
					}
					continue // task drained between pick and take
				}
				lc := lcs[t]
				if lc == nil {
					lc = core.NewLifecycleWithPool(t.cfg, t.pool)
					lcs[t] = lc
				}
				if len(t.c.Oracles) > 0 {
					lc.SetOracle(t.c.Oracles[int(off)%len(t.c.Oracles)])
				}
				// A failed lifecycle still counts against the budget; the
				// Result reports it in Errors/Err.
				bug, err := lc.RunSeed(t.c.BaseSeed + off)
				if t.complete(off, bug, err, lc.TakeStats()) {
					finalize(t)
				}
			}
		}(w)
	}
	wg.Wait()

	// Cancellation can leave tasks unfinished (units never issued); give
	// them their partial results.
	for _, t := range tasks {
		t.mu.Lock()
		done := t.finished
		t.finished = true
		t.mu.Unlock()
		if !done {
			finalize(t)
		}
	}
	return results
}

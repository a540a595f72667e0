package core

import "repro/internal/sut"

// Lifecycle is the reusable form of a Tester: where NewTester +
// RunDatabase construct a tester, an engine, and its storage per database
// and throw all three away, a Lifecycle keeps one tester and draws
// pristine databases from a sut.Pool of resettable sessions — the RNG is
// re-seeded and the pooled engine reset per database, so RunSeed(s) is
// byte-identical to NewTester(cfg with Seed=s).RunDatabase() while paying
// construction costs once. The campaign scheduler runs every database of
// a sweep through lifecycles; a Lifecycle, like a Tester, is
// single-goroutine.
type Lifecycle struct {
	*Tester
	pool    *sut.Pool
	ownPool bool
}

// NewLifecycle creates a lifecycle with its own session pool.
func NewLifecycle(cfg Config) *Lifecycle {
	lc := &Lifecycle{Tester: NewTester(cfg)}
	lc.pool = sut.NewPool(lc.cfg.Backend, lc.cfg.Session)
	lc.ownPool = true
	return lc
}

// NewLifecycleWithPool creates a lifecycle drawing databases from a
// shared pool (one pool per campaign task lets stolen work reuse the
// task's engines). The pool's session must match cfg — the pool wins.
func NewLifecycleWithPool(cfg Config, pool *sut.Pool) *Lifecycle {
	return &Lifecycle{Tester: NewTester(cfg), pool: pool}
}

// Reseed rewinds the tester's RNG to the deterministic stream of a fresh
// NewTester with Seed = seed.
func (t *Tester) Reseed(seed int64) {
	t.cfg.Seed = seed
	t.rnd.Reseed(seed)
}

// SetOracle switches the testing oracle for subsequent databases
// (campaign oracle rotation across one pooled lifecycle). Each name is
// resolved through the registry once per tester, so a rotated oracle keeps
// its reused check memory.
func (t *Tester) SetOracle(name string) {
	if name == t.cfg.Oracle {
		return
	}
	t.cfg.Oracle = name
	t.resolveOracle()
}

// TakeStats returns the counters accumulated since the last take and
// resets them, so schedulers can fold per-database deltas into
// per-campaign aggregates without double counting.
func (t *Tester) TakeStats() *Stats {
	s := t.stats
	t.stats = newStats()
	return s
}

// RunSeed runs one full database lifecycle for the seed: re-seed the RNG,
// acquire a pristine pooled database, hunt, release. Stats accumulate
// across seeds exactly as a campaign worker's per-database testers would
// have been aggregated.
func (l *Lifecycle) RunSeed(seed int64) (*Bug, error) {
	l.Reseed(seed)
	db, err := l.pool.Acquire()
	if err != nil {
		return nil, err
	}
	bug, err := l.runOn(db)
	l.pool.Release(db)
	return bug, err
}

// Close releases the lifecycle's pool when it owns one.
func (l *Lifecycle) Close() error {
	if l.ownPool {
		return l.pool.Close()
	}
	return nil
}

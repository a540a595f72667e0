package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// TestLifecycleMatchesNewTesterPerDatabase is the equivalence behind the
// pooled campaign hot loop: for every seed, a reused Lifecycle must
// produce exactly the outcome (detection or not, message, trace) that a
// throwaway NewTester would — across dialects, faults, and oracles, so
// that scheduler results cannot depend on lifecycle reuse.
func TestLifecycleMatchesNewTesterPerDatabase(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		fault  faults.Fault
		oracle string
		seeds  int64
	}{
		{name: "sqlite-pqs-sound", cfg: Config{Session: sut.Session{Dialect: dialect.SQLite}}, seeds: 15},
		{name: "mysql-pqs-fault", cfg: Config{Session: sut.Session{Dialect: dialect.MySQL}}, fault: faults.InsertVisibility, seeds: 40},
		{name: "postgres-pqs", cfg: Config{Session: sut.Session{Dialect: dialect.Postgres}}, seeds: 10},
		{name: "sqlite-tlp", cfg: Config{Session: sut.Session{Dialect: dialect.SQLite}}, oracle: "tlp", fault: faults.UnionAllDedup, seeds: 25},
		{name: "sqlite-norec", cfg: Config{Session: sut.Session{Dialect: dialect.SQLite}}, oracle: "norec", seeds: 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.QueriesPerDB = 10
			if tc.fault != "" {
				cfg.Faults = faults.NewSet(tc.fault)
			}
			cfg.Oracle = tc.oracle

			type outcome struct {
				msg   string
				trace []string
			}
			capture := func(b *Bug) outcome {
				if b == nil {
					return outcome{}
				}
				return outcome{msg: b.Message, trace: b.Trace}
			}

			lc := NewLifecycle(cfg)
			defer lc.Close()
			for seed := int64(1); seed <= tc.seeds; seed++ {
				fresh := NewTester(func() Config { c := cfg; c.Seed = seed; return c }())
				wantBug, wantErr := fresh.RunDatabase()
				gotBug, gotErr := lc.RunSeed(seed)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d: err %v vs %v", seed, wantErr, gotErr)
				}
				want, got := capture(wantBug), capture(gotBug)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d diverged:\nfresh:     %+v\nlifecycle: %+v", seed, want, got)
				}
			}
		})
	}
}

// TestLifecycleIsolationAcrossFaultRegistry sweeps every registered fault
// through a reused Lifecycle and a throwaway NewTester per seed, and
// fails on any divergence — the definitive check that no engine or tester
// state (options, fault bookkeeping, caches) leaks across Reset. The
// case-sensitive-like pragma fault earned this test: its evaluator-side
// option copy survived an early Reset implementation and turned into
// containment false positives at seed 216.
func TestLifecycleIsolationAcrossFaultRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is not short")
	}
	const seeds = 25
	for _, info := range faults.All() {
		info := info
		t.Run(string(info.ID), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Session:      sut.Session{Dialect: info.Dialect, Faults: faults.NewSet(info.ID)},
				QueriesPerDB: 10,
				Oracle:       oracleForInfo(info),
			}
			lc := NewLifecycle(cfg)
			defer lc.Close()
			for seed := int64(1); seed <= seeds; seed++ {
				c2 := cfg
				c2.Seed = seed
				wantBug, wantErr := NewTester(c2).RunDatabase()
				gotBug, gotErr := lc.RunSeed(seed)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d: err %v vs %v", seed, wantErr, gotErr)
				}
				var want, got string
				if wantBug != nil {
					want = string(wantBug.Oracle) + ": " + wantBug.Message
				}
				if gotBug != nil {
					got = string(gotBug.Oracle) + ": " + gotBug.Message
				}
				if want != got {
					t.Fatalf("seed %d diverged (state leaked across Reset?):\nfresh:     %s\nlifecycle: %s", seed, want, got)
				}
			}
		})
	}
}

// oracleForInfo routes a fault to its registry oracle without importing
// the runner (mirrors oracle.ForFault).
func oracleForInfo(info faults.Info) string {
	return oracle.ForFault(info)
}

// TestLifecycleOracleRotation verifies SetOracle switches the query phase
// without disturbing determinism: rotating pqs→tlp→pqs reproduces the
// same outcomes as one-shot testers with those oracles.
func TestLifecycleOracleRotation(t *testing.T) {
	base := Config{Session: sut.Session{Dialect: dialect.SQLite, Faults: faults.NewSet(faults.UnionAllDedup)}, QueriesPerDB: 8}
	lc := NewLifecycle(base)
	defer lc.Close()
	oracles := []string{"pqs", "tlp", "pqs", "norec", "tlp"}
	for i, name := range oracles {
		seed := int64(100 + i)
		cfg := base
		cfg.Seed = seed
		cfg.Oracle = name
		wantBug, wantErr := NewTester(cfg).RunDatabase()
		lc.SetOracle(name)
		gotBug, gotErr := lc.RunSeed(seed)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s seed %d: err %v vs %v", name, seed, wantErr, gotErr)
		}
		if (wantBug == nil) != (gotBug == nil) {
			t.Fatalf("%s seed %d: detection %v vs %v", name, seed, wantBug != nil, gotBug != nil)
		}
		if wantBug != nil && (wantBug.Message != gotBug.Message || wantBug.DetectedBy != gotBug.DetectedBy) {
			t.Fatalf("%s seed %d: %q/%q vs %q/%q", name, seed,
				wantBug.DetectedBy, wantBug.Message, gotBug.DetectedBy, gotBug.Message)
		}
	}
}

// TestPivotLoopAllocs bounds the heap allocations of a pooled database
// lifecycle, averaged over fixed seeds. The pivot loop reuses the
// tester's context, query scaffold and column references across
// iterations; a site that goes back to allocating per pivot or per query
// adds hundreds of allocations per database (one allocating Bind costs a
// key per bound column per pivot) and crosses the bound. On these seeds a
// database took 2,747 allocations on sqlite and 2,104 on postgres before
// the reuse, and 1,799 and 1,414 with it. Compiling each clause into the
// engine's statement memory as a flat program, instead of a tree of
// closures, took them from 1,588 and 1,268 to 876 and 708. One generator
// reset per iteration instead of a new one, one sut.Result header per
// database and partial-index keys rendered into a reused buffer took them
// to 785 and 589; taking hash aggregation's aggregate columns from
// statement memory took them from 761 and 589 to 755 and 582. Building
// generated statements in the generators' reused node arenas (one state
// generator per tester, reset per database; the expression generator's
// arena rewound per iteration) took them to 497 and 393.
func TestPivotLoopAllocs(t *testing.T) {
	const seeds = 40
	for _, tc := range []struct {
		d     dialect.Dialect
		bound float64
	}{
		{dialect.SQLite, 600},
		{dialect.Postgres, 480},
	} {
		t.Run(tc.d.String(), func(t *testing.T) {
			lc := NewLifecycle(Config{Session: sut.Session{Dialect: tc.d}})
			defer lc.Close()
			perDB := testing.AllocsPerRun(2, func() {
				for seed := int64(1); seed <= seeds; seed++ {
					if bug, err := lc.RunSeed(seed); bug != nil || err != nil {
						t.Fatalf("seed %d: bug %v, err %v", seed, bug, err)
					}
				}
			}) / seeds
			t.Logf("%.0f allocations per database", perDB)
			if perDB > tc.bound {
				t.Errorf("%.0f allocations per database, want at most %.0f", perDB, tc.bound)
			}
		})
	}
}

// TestMetamorphicAllocs bounds the heap allocations of a pooled database
// lifecycle under the metamorphic oracles, averaged over fixed seeds, one
// row per workload group of the campaign benchmark plus the rotation.
// TLP and NoREC reuse their query scaffolds, generator, row copy and
// multiset buffers across checks, and read one per-database target
// snapshot; the tester keeps one oracle per name, so rotating oracles
// (the "rotated" row, as a campaign's oracle list does) keeps each one's
// memory. A site that goes back to allocating per check adds tens of
// allocations per check, 30 checks per database, and crosses the bound.
// On these seeds a database took 3,023 (sqlite tlp), 1,035 (sqlite
// norec), 1,000 (postgres norec) and 2,023 (rotated) allocations before
// the reuse, and 1,157, 584, 562 and 867 with it. Taking hash
// aggregation's aggregate columns from statement memory took sqlite tlp
// from 1,161 to 1,067 and rotated from 868 to 821. Building generated
// statements in the generators' reused node arenas took the four rows
// from 1,067, 581, 562 and 821 to 896, 411, 406 and 652.
func TestMetamorphicAllocs(t *testing.T) {
	const seeds = 40
	for _, tc := range []struct {
		name    string
		d       dialect.Dialect
		oracles []string
		bound   float64
	}{
		{"sqlite-tlp", dialect.SQLite, []string{"tlp"}, 1050},
		{"sqlite-norec", dialect.SQLite, []string{"norec"}, 500},
		{"postgres-norec", dialect.Postgres, []string{"norec"}, 500},
		{"rotated", dialect.SQLite, []string{"tlp", "norec"}, 800},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lc := NewLifecycle(Config{Session: sut.Session{Dialect: tc.d}, Oracle: tc.oracles[0]})
			defer lc.Close()
			perDB := testing.AllocsPerRun(2, func() {
				for seed := int64(1); seed <= seeds; seed++ {
					lc.SetOracle(tc.oracles[int(seed)%len(tc.oracles)])
					if bug, err := lc.RunSeed(seed); bug != nil || err != nil {
						t.Fatalf("seed %d: bug %v, err %v", seed, bug, err)
					}
				}
			}) / seeds
			t.Logf("%.0f allocations per database", perDB)
			if perDB > tc.bound {
				t.Errorf("%.0f allocations per database, want at most %.0f", perDB, tc.bound)
			}
		})
	}
}

// TestSerializabilityAllocs bounds the heap allocations of a pooled
// database lifecycle under the serializability oracle, averaged over
// fixed seeds. The oracle compares typed rows and engine snapshots, reuses
// its check memory across the database's checks, and the engine recycles
// the snapshots that park session states; going back to rendering result
// rows or table dumps, or to a fresh Snapshot per session switch, crosses
// the bound. On these seeds a database took 11,531 allocations with
// rendered comparisons and 5,806 without. Flat compiled programs and
// transaction read/write sets kept in pooled sorted slices instead of
// per-statement maps took it from 5,755 to 5,063; one sut.Result header
// per session and none per BEGIN/COMMIT/ROLLBACK took it to 4,508, and
// later engine work to 4,397. Building the setup statements and session
// scripts in the generators' reused node arenas, with shared BEGIN/COMMIT/
// ROLLBACK nodes, a reused schedule and recycled sessions, took it to
// 2,526; going back to a new generator, schedule or session per check
// crosses the bound.
func TestSerializabilityAllocs(t *testing.T) {
	const seeds, bound = 40, 3100
	lc := NewLifecycle(Config{Oracle: "serializability", Session: sut.Session{Dialect: dialect.SQLite}})
	defer lc.Close()
	perDB := testing.AllocsPerRun(2, func() {
		for seed := int64(1); seed <= seeds; seed++ {
			if bug, err := lc.RunSeed(seed); bug != nil || err != nil {
				t.Fatalf("seed %d: bug %v, err %v", seed, bug, err)
			}
		}
	}) / seeds
	t.Logf("%.0f allocations per database", perDB)
	if perDB > bound {
		t.Errorf("%.0f allocations per database, want at most %d", perDB, bound)
	}
}

// TestSetupTraceSurvivesChecks holds the generators' lifetime rule: the
// statements that built a database live in the tester's generator until
// the next database, and the writing oracles build their histories and
// DML in generators of their own, reset per check. So the setup trace a
// detection would carry must render the same after a database's 30
// checks as right after BuildDatabase; an oracle generating into the
// tester's arena or hint buffer rewrites it.
func TestSetupTraceSurvivesChecks(t *testing.T) {
	for _, tc := range []struct {
		oracle, storage string
		seeds           int64 // recovery syncs real files, so it runs fewer
	}{
		{"serializability", "", 20},
		{"recovery", "pager", 5},
	} {
		t.Run(tc.oracle, func(t *testing.T) {
			lc := NewLifecycle(Config{Oracle: tc.oracle, Session: sut.Session{Dialect: dialect.SQLite, Storage: tc.storage}})
			defer lc.Close()
			probe := &setupProbe{Oracle: lc.meta}
			lc.meta = probe
			for seed := int64(1); seed <= tc.seeds; seed++ {
				probe.checks = 0
				if bug, err := lc.RunSeed(seed); bug != nil || err != nil {
					t.Fatalf("seed %d: bug %v, err %v", seed, bug, err)
				}
				if probe.checks != lc.cfg.QueriesPerDB {
					t.Fatalf("seed %d: %d checks, want %d", seed, probe.checks, lc.cfg.QueriesPerDB)
				}
				if !slices.Equal(probe.first, probe.last) {
					t.Fatalf("seed %d: setup trace changed over the checks:\nafter build:  %q\nafter checks: %q",
						seed, probe.first, probe.last)
				}
			}
		})
	}
}

// setupProbe renders the setup trace before a database's first check and
// after every check.
type setupProbe struct {
	oracle.Oracle
	checks      int
	first, last []string
}

func (p *setupProbe) Check(db sut.DB, env *oracle.Env) (*oracle.Report, error) {
	if p.checks == 0 {
		p.first = env.SetupTrace()
	}
	rep, err := p.Oracle.Check(db, env)
	p.checks++
	p.last = env.SetupTrace()
	return rep, err
}

// TestDetectionOutlivesLaterIterations holds the tester's lifetime rule:
// the pivot loop reuses its query scaffold, expected tuple and context,
// so a detection must own what it reports. A containment detection from
// one pooled Lifecycle has to read the same after the lifecycle runs more
// databases on the same scratch memory.
func TestDetectionOutlivesLaterIterations(t *testing.T) {
	lc := NewLifecycle(Config{Session: sut.Session{
		Dialect: dialect.SQLite,
		Faults:  faults.NewSet(faults.RangeScanBoundary),
	}})
	defer lc.Close()
	var bug *Bug
	seed := int64(1)
	for ; bug == nil && seed <= 300; seed++ {
		var err error
		if bug, err = lc.RunSeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if bug == nil || bug.Oracle != faults.OracleContainment || len(bug.Expected) == 0 {
		t.Fatalf("no containment detection with an expected tuple within 300 databases: %+v", bug)
	}
	want := Bug{
		Message:     bug.Message,
		Trace:       slices.Clone(bug.Trace),
		Expected:    slices.Clone(bug.Expected),
		PivotTables: map[string][]sqlval.Value{},
	}
	for tn, row := range bug.PivotTables {
		want.PivotTables[tn] = slices.Clone(row)
	}
	for end := seed + 30; seed < end; seed++ {
		if _, err := lc.RunSeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	got := Bug{Message: bug.Message, Trace: bug.Trace, Expected: bug.Expected, PivotTables: bug.PivotTables}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detection changed after later databases:\nbefore: %+v\nafter:  %+v", want, got)
	}
}

// TestMetamorphicReportOutlivesLaterChecks holds the metamorphic oracles'
// lifetime rule: TLP and NoREC reuse their query scaffolds, row copy and
// target snapshot across checks, so a Report must own what it says. A
// detection from one pooled Lifecycle has to read the same after the
// lifecycle runs more databases on the same oracle's memory.
func TestMetamorphicReportOutlivesLaterChecks(t *testing.T) {
	for _, tc := range []struct {
		oracle string
		fault  faults.Fault
	}{
		{"tlp", faults.UnionAllDedup},
		{"norec", faults.NorecCountMismatch},
	} {
		t.Run(tc.oracle, func(t *testing.T) {
			lc := NewLifecycle(Config{Oracle: tc.oracle, Session: sut.Session{
				Dialect: dialect.SQLite,
				Faults:  faults.NewSet(tc.fault),
			}})
			defer lc.Close()
			var bug *Bug
			seed := int64(1)
			for ; bug == nil && seed <= 300; seed++ {
				var err error
				if bug, err = lc.RunSeed(seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if bug == nil || bug.DetectedBy != tc.oracle {
				t.Fatalf("no %s detection within 300 databases: %+v", tc.oracle, bug)
			}
			want := *bug
			want.Trace = slices.Clone(bug.Trace)
			for end := seed + 30; seed < end; seed++ {
				if _, err := lc.RunSeed(seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if !reflect.DeepEqual(*bug, want) {
				t.Fatalf("detection changed after later databases:\nbefore: %+v\nafter:  %+v", want, *bug)
			}
		})
	}
}

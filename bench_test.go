// Benchmark harness of the root package: campaign throughput on the path
// campaigns take (core.Lifecycle), the engine's optimised paths against
// their ablation baselines, and the ratio tripwires that fail when an
// optimisation stops paying for itself. The paper's tables, figures and
// design ablations are computed by cmd/benchreport alone:
// go run ./cmd/benchreport.
//
// Run: go test -run '^$' -bench . -benchtime 1x .
package repro

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/sqlparse"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	"repro/internal/sut/memengine"
)

// BenchmarkCampaign measures end-to-end campaign throughput through one
// pooled core.Lifecycle per row and dialect, seeds 1..b.N, for every
// configuration the repo compares: the default PQS configuration (the §3.4
// throughput claim, "SQLancer generates 5,000 to 20,000 statements per
// second"), the other oracles, wire fidelity, pager storage and hash
// aggregation off. Every row reports dbs/s, stmts/s, queries/db and
// allocations. Its tripwires compare campaign paths: lifecycle reuse,
// the scheduler and the ExecAST fast path.
func BenchmarkCampaign(b *testing.B) {
	rows := []struct {
		name string
		cfg  core.Config
	}{
		// The default configuration — PQS, the ExecAST fast path,
		// in-memory storage, hash aggregation on — and the baseline every
		// other row compares against. Its stmts/s is the §3.4 claim.
		// Next to it, the same database-generation phase under TLP's
		// partition/aggregate checks, NoREC's query pairs, and the
		// serializability oracle's interleaved histories with a
		// serial-order search and snapshot restore per check.
		{"OracleThroughput/pqs", core.Config{Oracle: "pqs", QueriesPerDB: 20}},
		{"OracleThroughput/tlp", core.Config{Oracle: "tlp", QueriesPerDB: 20}},
		{"OracleThroughput/norec", core.Config{Oracle: "norec", QueriesPerDB: 20}},
		{"InterleavedCampaign", core.Config{Oracle: "serializability", QueriesPerDB: 20}},
		// Wire fidelity (every statement rendered and reparsed) against
		// OracleThroughput/pqs's ExecAST fast path (generated ASTs run
		// directly, traces rendered only on detection).
		{"CampaignThroughput/WireFidelity", core.Config{Session: sut.Session{WireFidelity: true}, QueriesPerDB: 20}},
		// The durable pager backend pays image serialization, WAL append
		// and fsync per statement against OracleThroughput/pqs's in-memory
		// storage: the price of crash-recovery testing.
		{"PagerThroughput/pager", core.Config{Session: sut.Session{Storage: "pager"}, QueriesPerDB: 20}},
		// PQS with grouped and exact-position ordered query shapes, hash
		// aggregation and top-K ablated against OracleThroughput/pqs.
		{"AggCampaignThroughput/NoHashAgg", core.Config{Session: sut.Session{NoHashAgg: true}, QueriesPerDB: 20}},
	}
	for _, r := range rows {
		for _, d := range dialect.All {
			b.Run(r.name+"/"+d.String(), func(b *testing.B) {
				if r.cfg.Storage == "pager" {
					b.Setenv("TMPDIR", b.TempDir())
				}
				cfg := r.cfg
				cfg.Dialect = d
				lc := core.NewLifecycle(cfg)
				defer lc.Close()
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := clean(lc.RunSeed(int64(i + 1))); err != nil {
						b.Fatal(err)
					}
				}
				if el := time.Since(start).Seconds(); el > 0 {
					st := lc.Stats()
					b.ReportMetric(float64(b.N)/el, "dbs/s")
					b.ReportMetric(float64(st.Statements)/el, "stmts/s")
					b.ReportMetric(float64(st.Queries)/float64(b.N), "queries/db")
				}
			})
		}
	}

	// Lifecycle reuse (engine Reset, recycled storage, reseeded RNG)
	// against a fresh NewTester and engine per database, single-threaded.
	// The floor only guards against reuse becoming a regression; the 1.5x
	// gate lives on the scheduler, where pooling and work stealing compound.
	for _, d := range dialect.All {
		tripwire(b, "LifecycleReuse/"+d.String(), 0.95, func(b *testing.B) float64 {
			cfg := core.Config{Session: sut.Session{Dialect: d}, QueriesPerDB: 20}
			lc := core.NewLifecycle(cfg)
			defer lc.Close()
			return ratio(b, func(i int) error {
				return clean(lc.RunSeed(int64(i + 1)))
			}, func(i int) error {
				c := cfg
				c.Seed = int64(i + 1)
				return clean(core.NewTester(c).RunDatabase())
			})
		})
	}

	// Many campaigns multiplexed over one shared work-stealing pool of
	// pooled lifecycles against the baseline the runner used before the
	// scheduler existed: one goroutine, a fresh Tester and engine per
	// database. The floor needs idle cores for parallel speedup to mean
	// anything, so it arms only on four CPUs or more, on the best dialect.
	schedulerFloor := 0.0
	if runtime.NumCPU() >= 4 {
		schedulerFloor = 1.5
	}
	tripwire(b, "SchedulerThroughput", schedulerFloor, func(b *testing.B) float64 {
		const campaigns, perCampaign = 4, 25
		best := 0.0
		for _, d := range dialect.All {
			r := ratio(b, func(i int) error {
				var cs []runner.Campaign
				for c := 0; c < campaigns; c++ {
					cs = append(cs, runner.Campaign{
						Dialect:      d,
						MaxDatabases: perCampaign,
						BaseSeed:     int64(1 + (i*campaigns+c)*perCampaign),
						Tester:       core.Config{QueriesPerDB: 20},
					})
				}
				for _, res := range (&runner.Scheduler{}).Sweep(context.Background(), cs) {
					if res.Errors > 0 {
						return res.Err
					}
					if res.Detected {
						return fmt.Errorf("soundness sweep false positive: %s", res.Bug.Message)
					}
				}
				return nil
			}, func(i int) error {
				for s := 0; s < campaigns*perCampaign; s++ {
					cfg := core.Config{Session: sut.Session{Dialect: d}, Seed: int64(1 + i*campaigns*perCampaign + s), QueriesPerDB: 20}
					if err := clean(core.NewTester(cfg).RunDatabase()); err != nil {
						return err
					}
				}
				return nil
			})
			b.ReportMetric(r, "x-"+d.String())
			best = max(best, r)
		}
		return best
	})

	// The ExecAST fast path against wire fidelity's render and reparse of
	// every statement. The floor is conservative: it fails only if the
	// fast path stops paying for itself.
	tripwire(b, "WireFidelity", 1.1, func(b *testing.B) float64 {
		fast := core.NewLifecycle(core.Config{Session: sut.Session{Dialect: dialect.SQLite}, QueriesPerDB: 20})
		defer fast.Close()
		wire := core.NewLifecycle(core.Config{Session: sut.Session{Dialect: dialect.SQLite, WireFidelity: true}, QueriesPerDB: 20})
		defer wire.Close()
		return ratio(b, func(i int) error {
			return clean(fast.RunSeed(int64(i + 1)))
		}, func(i int) error {
			return clean(wire.RunSeed(int64(i + 1)))
		})
	})
}

// clean turns a detection into an error: every campaign here runs
// without faults, so a detection is a false positive.
func clean(bug *core.Bug, err error) error {
	if err == nil && bug != nil {
		err = fmt.Errorf("false positive: %s", bug.Message)
	}
	return err
}

// enginePath is one row of BenchmarkEnginePaths: a workload one optimised
// engine path serves, run with the path on and with it switched off.
type enginePath struct {
	name  string
	setup []string
	query string
	rows  int     // expected result rows; a drifted workload times nothing useful
	off   string  // the sut.Ablations name the off side switches off
	floor float64 // least off/on time ratio; 0 means no tripwire
}

// groupBySQL is the grouped shape the group-by rows and the allocation
// test measure: three accumulator aggregates over 10k rows.
const groupBySQL = "SELECT g, COUNT(*), SUM(a), AVG(b) FROM ab0 GROUP BY g"

// enginePaths lists BenchmarkEnginePaths' rows, all on SQLite.
func enginePaths() []enginePath {
	// A 10k-row table indexed on c0: index access paths against full scans.
	indexed := append([]string{"CREATE TABLE t0(c0 INT, c1 TEXT)", "CREATE INDEX i0 ON t0(c0)"},
		insertBatches("t0", 10000, 500, func(i int) string { return fmt.Sprintf("(%d, 'v%d')", i, i) })...)
	// Neither row-filter workload is indexed, so the planner cannot
	// shortcut the filter: every row runs the predicate.
	wide := append([]string{"CREATE TABLE t0(c0 INT, c1 TEXT, c2 REAL, c3 INT, c4 TEXT COLLATE NOCASE, c5 INT)"},
		insertBatches("t0", 4000, 500, func(i int) string {
			return fmt.Sprintf("(%d, 'v%d', %d.5, %d, 'K%d', %d)", i, i, i%97, i%13, i%7, i%29)
		})...)
	join3 := append([]string{"CREATE TABLE a(c0 INT, c1 TEXT)", "CREATE TABLE b(c0 INT, c1 INT)", "CREATE TABLE c(c0 INT, c1 INT)"},
		insertBatches("a", 25, 25, func(i int) string { return fmt.Sprintf("(%d, 'n%d')", i, i%5) })...)
	for _, table := range []string{"b", "c"} {
		join3 = append(join3, insertBatches(table, 25, 25, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%5) })...)
	}
	// Two 1k-row tables whose keys match exactly once: 1000 rows out of a
	// million-pair cross space, the shape where hashing pays most.
	var equi []string
	for _, table := range []string{"jb0", "jb1"} {
		equi = append(equi, fmt.Sprintf("CREATE TABLE %s(k INT, v TEXT)", table))
		equi = append(equi, insertBatches(table, 1000, 200, func(i int) string { return fmt.Sprintf("(%d, 'v%d')", i, i) })...)
	}
	grouped1000 := groupedSetup(1000)
	return []enginePath{
		{"point-lookup", indexed, "SELECT c1 FROM t0 WHERE c0 = 6917", 1, "planner", 0},
		{"range-scan", indexed, "SELECT c0 FROM t0 WHERE c0 >= 4000 AND c0 < 4100", 100, "planner", 0},
		// A non-sargable WHERE: what access-path selection costs when it
		// cannot help.
		{"planner-overhead", indexed, "SELECT c0 FROM t0 WHERE c0 % 7000 = 1", 2, "planner", 0},
		// Compiled programs against the tree-walk interpreter. The
		// acceptance target was 2x; the floor is a conservative 1.5x.
		{"row-filter/wide-scan", wide, "SELECT c0, c1 FROM t0 WHERE (c0 % 7 = 1 AND c2 > 40.0) OR (c4 = 'k3' AND c3 + c5 < 20) OR c1 LIKE 'v39%'", 705, "compile", 1.5},
		{"row-filter/join-3way", join3, "SELECT a.c0, c.c1 FROM a JOIN b ON a.c0 = b.c0 AND b.c1 < 4 JOIN c ON b.c1 = c.c1 WHERE a.c1 <> 'n0' AND a.c0 + c.c0 > 3", 74, "compile", 1.5},
		// The hash join against the nested loop; a planner regression that
		// reverts joins to O(n*m) fails the 5x floor.
		{"hash-join", equi, "SELECT jb0.v FROM jb0 JOIN jb1 ON jb0.k = jb1.k", 1000, "hashjoin", 5},
		// Streaming accumulators against the materialized path that
		// retains every row per group; the floor guards the 10-group shape.
		{"group-by/groups=10", groupedSetup(10), groupBySQL, 10, "hashagg", 3},
		{"group-by/groups=1000", grouped1000, groupBySQL, 1000, "hashagg", 0},
		// ORDER BY with a small LIMIT through the bounded max-heap against
		// the full sort; without LIMIT both sides run the same full sort,
		// which pins the baseline.
		{"top-k/limit10", grouped1000, "SELECT * FROM ab0 ORDER BY b, a LIMIT 10", 10, "hashagg", 0},
		{"top-k/limit10-offset100", grouped1000, "SELECT * FROM ab0 ORDER BY b, a LIMIT 10 OFFSET 100", 10, "hashagg", 0},
		{"top-k/full-sort", grouped1000, "SELECT * FROM ab0 ORDER BY b, a", 10000, "hashagg", 0},
	}
}

// groupedSetup is a 10k-row table whose group key g takes groups values.
func groupedSetup(groups int) []string {
	return append([]string{"CREATE TABLE ab0(g INT, a INT, b REAL, c INT)"},
		insertBatches("ab0", 10000, 200, func(i int) string {
			return fmt.Sprintf("(%d, %d, %d.5, %d)", i%groups, i, i%100, i%7)
		})...)
}

// insertBatches renders rows generated rows of table as multi-row INSERT
// statements of at most batch rows each.
func insertBatches(table string, rows, batch int, row func(i int) string) []string {
	var stmts []string
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := lo; i < min(lo+batch, rows); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(row(i))
		}
		stmts = append(stmts, sb.String())
	}
	return stmts
}

// openEngine opens a SQLite engine with the comma-separated sut.Ablations
// features in disable switched off, through memengine.Open (the one place
// a Session becomes engine options), and runs setup on it.
func openEngine(tb testing.TB, disable string, setup []string) *engine.Engine {
	tb.Helper()
	s := sut.Session{Dialect: dialect.SQLite}
	if err := s.Disable(disable); err != nil {
		tb.Fatal(err)
	}
	db, err := memengine.Open(s)
	if err != nil {
		tb.Fatal(err)
	}
	e := db.Underlying()
	for _, stmt := range setup {
		if _, err := e.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// BenchmarkEnginePaths runs every enginePaths row as name/on and name/off
// sub-benchmarks, and each row with a floor as a name/ratio tripwire.
func BenchmarkEnginePaths(b *testing.B) {
	for _, p := range enginePaths() {
		sel, err := sqlparse.ParseOne(p.query, dialect.SQLite)
		if err != nil {
			b.Fatal(err)
		}
		query := func(e *engine.Engine) func(int) error {
			return func(int) error {
				res, err := e.ExecStmt(sel)
				if err == nil && len(res.Rows) != p.rows {
					err = fmt.Errorf("%s: %d result rows, want %d", p.name, len(res.Rows), p.rows)
				}
				return err
			}
		}
		on := query(openEngine(b, "", p.setup))
		off := query(openEngine(b, p.off, p.setup))
		for _, side := range []struct {
			name string
			op   func(int) error
		}{{"on", on}, {"off", off}} {
			b.Run(p.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := side.op(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if p.floor > 0 {
			tripwire(b, p.name, p.floor, func(b *testing.B) float64 { return ratio(b, on, off) })
		}
	}
}

// tripwire runs measure as the sub-benchmark name/ratio, reports the
// lowest ratio it returned as the x metric, and fails below floor (0
// reports without failing). Under -benchtime 1x it measures once.
func tripwire(b *testing.B, name string, floor float64, measure func(b *testing.B) float64) {
	b.Run(name+"/ratio", func(b *testing.B) {
		worst := math.Inf(1)
		for i := 0; i < b.N; i++ {
			worst = min(worst, measure(b))
		}
		b.ReportMetric(worst, "x")
		if worst < floor {
			b.Errorf("%s: %.2fx, below its %.2fx floor", name, worst, floor)
		}
	})
}

// ratioSide is the least time the slower side of a ratio runs per round.
const ratioSide = 100 * time.Millisecond

// ratio measures how many times faster fast runs than slow. op(i) runs
// unit of work i, and both sides run units 0..n-1. A doubling warm-up on
// each side sizes n to the count at which the slower side first takes
// ratioSide; it also warms programs, pools and caches. Five rounds then
// alternate which side goes first, collect garbage before each side so
// one side's debris is not collected on the other's clock, and keep each
// side's best time.
func ratio(b *testing.B, fast, slow func(i int) error) float64 {
	b.Helper()
	sides := [2]func(int) error{fast, slow}
	timed := func(op func(int) error, n int) time.Duration {
		runtime.GC()
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	n := math.MaxInt
	for _, op := range sides {
		k := 1
		for timed(op, k) < ratioSide {
			k *= 2
		}
		n = min(n, k)
	}
	var best [2]time.Duration
	for round := 0; round < 5; round++ {
		for j := range sides {
			s := (round + j) % 2
			if d := timed(sides[s], n); best[s] == 0 || d < best[s] {
				best[s] = d
			}
		}
	}
	return float64(best[1]) / float64(best[0])
}

// TestGroupByHashAllocs pins the "streaming" in streaming aggregation:
// executing the grouped benchmark query over 10k rows must allocate on
// the order of the group count, not the row count. The materialized path
// retains a per-group slice of every input row, so its allocations scale
// with rows; the accumulator path must stay under a bound a row-retaining
// implementation cannot meet.
func TestGroupByHashAllocs(t *testing.T) {
	e := openEngine(t, "", groupedSetup(10))
	sel, err := sqlparse.ParseOne(groupBySQL, dialect.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecStmt(sel); err != nil { // warm compiled programs
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.ExecStmt(sel); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("hash aggregation allocates %.0f times for 10k rows into 10 groups (want <=2000: bounded by groups, not rows)", allocs)
	}
}

// BenchmarkWALRecovery measures crash recovery: opening a pager whose
// WAL holds many uncheckpointed committed transactions, replaying them,
// and loading the restored image. The WAL is seeded once; each iteration
// abandons its pager with a simulated power cut (which closes the files
// without the checkpoint a clean Close would run), so every Open replays
// the identical WAL.
func BenchmarkWALRecovery(b *testing.B) {
	const commits = 32
	dir := b.TempDir()
	seed, err := pager.Open(pager.OS(), dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	seed.CheckpointBytes = 1 << 30 // keep every commit in the WAL
	img := make([]byte, 16*pager.PagePayload)
	for i := 0; i < commits; i++ {
		for j := range img {
			img[j] = byte(i + j)
		}
		if err := seed.Commit(img); err != nil {
			b.Fatal(err)
		}
	}
	seed.Crash(pager.CrashPlan{Point: pager.AfterSync, Mode: pager.LostTail})

	b.SetBytes(int64(commits * len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pager.Open(pager.OS(), dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if got := p.Stats().Recoveries; got != commits {
			b.Fatalf("replayed %d commits, want %d", got, commits)
		}
		if _, err := p.Load(); err != nil {
			b.Fatal(err)
		}
		p.Crash(pager.CrashPlan{Point: pager.AfterSync, Mode: pager.LostTail})
	}
	b.ReportMetric(float64(commits), "commits/recovery")
}

// BenchmarkTxnThroughput measures the transaction layer's commit cycle:
// BEGIN, one insert, COMMIT on a dedicated session, per dialect. The gap
// against plain autocommit inserts (the second sub-bench) is the price of
// snapshot staging plus commit validation and merge.
func BenchmarkTxnThroughput(b *testing.B) {
	for _, mode := range []string{"txn", "autocommit"} {
		b.Run(mode, func(b *testing.B) {
			for _, d := range dialect.All {
				b.Run(d.String(), func(b *testing.B) {
					e := engine.Open(d)
					if _, err := e.Exec("CREATE TABLE t0(c0 INT, c1 TEXT)"); err != nil {
						b.Fatal(err)
					}
					c := e.NewConn()
					ins, err := sqlparse.ParseOne("INSERT INTO t0 VALUES (1, 'x')", d)
					if err != nil {
						b.Fatal(err)
					}
					begin, _ := sqlparse.ParseOne("BEGIN", d)
					commit, _ := sqlparse.ParseOne("COMMIT", d)
					b.ReportAllocs()
					b.ResetTimer()
					start := time.Now()
					for i := 0; i < b.N; i++ {
						if mode == "txn" {
							if _, err := c.ExecStmt(begin); err != nil {
								b.Fatal(err)
							}
						}
						if _, err := c.ExecStmt(ins); err != nil {
							b.Fatal(err)
						}
						if mode == "txn" {
							if _, err := c.ExecStmt(commit); err != nil {
								b.Fatal(err)
							}
						}
					}
					if el := time.Since(start).Seconds(); el > 0 {
						b.ReportMetric(float64(b.N)/el, "commits/s")
					}
				})
			}
		})
	}
}

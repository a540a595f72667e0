// Benchmark harness: the end-to-end campaign rows, the ablations called
// out in DESIGN.md, and the engine's optimised-path benchmarks with their
// ratio tripwires. The paper's tables and figures (§4), the throughput
// claim (§3.4) and the fuzzer baseline (§6) are computed by
// cmd/benchreport alone: go run ./cmd/benchreport.
//
// Absolute numbers differ from the paper — the system under test is our
// engine substrate with injected ground-truth bugs, not SQLite/MySQL/
// PostgreSQL on the authors' machine — but the *shapes* reproduce.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sqlparse"
	"repro/internal/storage/pager"
	"repro/internal/sut"
)

var printOnce sync.Map

// printExperiment prints a block once per process so repeated bench
// iterations don't spam output.
func printExperiment(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// BenchmarkCampaign measures end-to-end campaign throughput — one tester,
// one RunDatabase per iteration — for every configuration the repo
// compares, each run once: the default PQS configuration (the §3.4
// throughput claim, "SQLancer generates 5,000 to 20,000 statements per
// second"), the other oracles, wire fidelity, pager storage, the
// hash-aggregation ablation and DESIGN.md's generation ablations. Every row reports dbs/s, stmts/s and queries/db
// per dialect; the CI -benchtime=1x smoke runs them all.
func BenchmarkCampaign(b *testing.B) {
	type row struct {
		name     string
		dialects []dialect.Dialect
		cfg      core.Config
	}
	rows := []row{
		// The default configuration — PQS, the ExecAST fast path,
		// in-memory storage, hash aggregation on — and the baseline every
		// other row compares against. Its stmts/s is the §3.4 claim.
		// Next to it, the same database-generation phase under TLP's
		// partition/aggregate checks, NoREC's query pairs, and the
		// serializability oracle's interleaved histories with a
		// serial-order search and snapshot restore per check.
		{"OracleThroughput/pqs", dialect.All, core.Config{Oracle: "pqs", Seed: 1, QueriesPerDB: 20}},
		{"OracleThroughput/tlp", dialect.All, core.Config{Oracle: "tlp", Seed: 1, QueriesPerDB: 20}},
		{"OracleThroughput/norec", dialect.All, core.Config{Oracle: "norec", Seed: 1, QueriesPerDB: 20}},
		{"InterleavedCampaign", dialect.All, core.Config{Oracle: "serializability", Seed: 1, QueriesPerDB: 20}},
		// Wire fidelity (every statement rendered and reparsed) against
		// OracleThroughput/pqs's ExecAST fast path (generated ASTs run
		// directly, traces rendered only on detection).
		{"CampaignThroughput/WireFidelity", dialect.All, core.Config{Session: sut.Session{WireFidelity: true}, Seed: 1, QueriesPerDB: 20}},
		// The durable pager backend pays image serialization, WAL append
		// and fsync per statement against OracleThroughput/pqs's in-memory
		// storage: the price of crash-recovery testing.
		{"PagerThroughput/pager", dialect.All, core.Config{Session: sut.Session{Storage: "pager"}, Seed: 1, QueriesPerDB: 20}},
		// PQS with grouped and exact-position ordered query shapes, hash
		// aggregation and top-K ablated against OracleThroughput/pqs.
		{"AggCampaignThroughput/NoHashAgg", dialect.All, core.Config{Session: sut.Session{NoHashAgg: true}, Seed: 1, QueriesPerDB: 20}},
	}
	// DESIGN.md ablations 3, 4 and 6 on SQLite: the paper keeps tables at
	// 10-30 rows to avoid join blowup; deeper expressions exercise more
	// operator combinations but cost throughput; how many queries to run
	// on one database before regenerating (Figure 1's "continue with 1
	// or 2").
	sqlite := []dialect.Dialect{dialect.SQLite}
	for _, n := range []int{2, 8, 30, 100} {
		rows = append(rows, row{fmt.Sprintf("AblationRowCount/rows=%d", n), sqlite, core.Config{Seed: 3, QueriesPerDB: 10, MinRows: n, MaxRows: n}})
	}
	for _, n := range []int{1, 2, 3, 5} {
		rows = append(rows, row{fmt.Sprintf("AblationExprDepth/depth=%d", n), sqlite, core.Config{Seed: 3, QueriesPerDB: 20, MaxExprDepth: n}})
	}
	for _, n := range []int{1, 10, 30, 100} {
		rows = append(rows, row{fmt.Sprintf("AblationQueriesPerDB/queries=%d", n), sqlite, core.Config{Seed: 3, QueriesPerDB: n}})
	}
	for _, r := range rows {
		for _, d := range r.dialects {
			b.Run(r.name+"/"+d.String(), func(b *testing.B) {
				if r.cfg.Storage == "pager" {
					b.Setenv("TMPDIR", b.TempDir())
				}
				cfg := r.cfg
				cfg.Dialect = d
				tester := core.NewTester(cfg)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if _, err := tester.RunDatabase(); err != nil {
						b.Fatal(err)
					}
				}
				if el := time.Since(start).Seconds(); el > 0 {
					st := tester.Stats()
					b.ReportMetric(float64(b.N)/el, "dbs/s")
					b.ReportMetric(float64(st.Statements)/el, "stmts/s")
					b.ReportMetric(float64(st.Queries)/float64(b.N), "queries/db")
				}
			})
		}
	}
}

// BenchmarkAblationSharedEvaluator (DESIGN.md ablation 1): using the
// engine's own evaluator as the oracle blinds PQS to evaluator-level logic
// bugs — the reason internal/interp exists.
func BenchmarkAblationSharedEvaluator(b *testing.B) {
	const budget = 300
	evalFaults := []faults.Fault{
		faults.DoubleNegation, faults.TextIntSubtract, faults.AffinityCompare,
		faults.TextDoubleBool, faults.UnsignedCompare,
	}
	independent, shared := 0, 0
	for _, f := range evalFaults {
		info, _ := faults.Lookup(f)
		if runner.Run(runner.Campaign{
			Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1,
		}).Detected {
			independent++
		}
		if runner.Run(runner.Campaign{
			Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1,
			Tester: core.Config{UseEngineAsOracle: true},
		}).Detected {
			shared++
		}
	}
	t := &report.Table{
		Title:   "Ablation 1: independent oracle interpreter vs sharing the engine's evaluator",
		Headers: []string{"Oracle", "Evaluator-level logic bugs found"},
		Note:    "A shared evaluator computes the same wrong answer as the engine, so the containment check passes.",
	}
	t.AddRow("Independent interpreter (PQS)", fmt.Sprintf("%d/%d", independent, len(evalFaults)))
	t.AddRow("Engine's own evaluator", fmt.Sprintf("%d/%d", shared, len(evalFaults)))
	printExperiment("ablation1", t.Render())
	b.ReportMetric(float64(independent), "independent")
	b.ReportMetric(float64(shared), "shared")
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkAblationRejectionSampling (ablation 2): rectification vs
// discarding non-TRUE expressions. Rejection sampling wastes generated
// expressions and skews the operator mix.
func BenchmarkAblationRejectionSampling(b *testing.B) {
	measure := func(disable bool) (discarded, queries int) {
		tester := core.NewTester(core.Config{
			Session: sut.Session{Dialect: dialect.SQLite}, Seed: 5, QueriesPerDB: 30,
			DisableRectification: disable,
		})
		for i := 0; i < 30; i++ {
			if _, err := tester.RunDatabase(); err != nil {
				b.Fatal(err)
			}
		}
		return tester.Stats().Discarded, tester.Stats().Queries
	}
	rd, rq := measure(false)
	dd, dq := measure(true)
	t := &report.Table{
		Title:   "Ablation 2: rectification (Algorithm 3) vs rejection sampling",
		Headers: []string{"Strategy", "Queries issued", "Expressions discarded"},
		Note:    "Rectification uses every generated expression; rejection sampling throws away FALSE/NULL ones (~2/3).",
	}
	t.AddRow("Rectification", rq, rd)
	t.AddRow("Rejection sampling", dq, dd)
	printExperiment("ablation2", t.Render())
	b.ReportMetric(float64(rd), "rect-discarded")
	b.ReportMetric(float64(dd), "reject-discarded")
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkAblationContainmentForm (ablation 5): client-side containment
// check vs the paper's INTERSECT query form (§3.2 combines steps 6 and 7).
// Both must detect; the INTERSECT form pays an extra result-set pass in
// the engine.
func BenchmarkAblationContainmentForm(b *testing.B) {
	const budget = 400
	probe := []faults.Fault{faults.PartialIndexNotNull, faults.DoubleNegation, faults.InsertVisibility}
	clientSide, intersectForm := 0, 0
	for _, f := range probe {
		info, _ := faults.Lookup(f)
		if runner.Run(runner.Campaign{
			Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1,
		}).Detected {
			clientSide++
		}
		if runner.Run(runner.Campaign{
			Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1,
			Tester: core.Config{ContainmentViaQuery: true},
		}).Detected {
			intersectForm++
		}
	}
	t := &report.Table{
		Title:   "Ablation 5: containment check form (client-side vs INTERSECT query)",
		Headers: []string{"Form", "Probe faults detected"},
		Note:    "The paper uses the INTERSECT form; both are sound and detect the same bugs.",
	}
	t.AddRow("Client-side row search", fmt.Sprintf("%d/%d", clientSide, len(probe)))
	t.AddRow("INTERSECT query (paper)", fmt.Sprintf("%d/%d", intersectForm, len(probe)))
	printExperiment("ablation5", t.Render())
	b.ReportMetric(float64(clientSide), "client")
	b.ReportMetric(float64(intersectForm), "intersect")
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkExtensionNegativeContainment measures the §7 future-work
// extension: FALSE-rectified conditions catch row-adding bugs ordinary
// containment cannot (the pivot is never "missing" when extra rows appear).
func BenchmarkExtensionNegativeContainment(b *testing.B) {
	const budget = 500
	f := faults.IsNotNullOpt
	info, _ := faults.Lookup(f)
	plain := runner.Run(runner.Campaign{
		Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1,
	})
	negative := runner.Run(runner.Campaign{
		Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1,
		Tester: core.Config{NegativeChecks: true},
	})
	t := &report.Table{
		Title:   "Extension (§7): negative containment checks",
		Headers: []string{"Mode", "Detected", "Databases to detection"},
		Note:    "Target: sqlite.is-not-null-opt (rewrites NOT(x IS NULL) to TRUE, adding rows).",
	}
	row := func(name string, r runner.Result) {
		if r.Detected {
			t.AddRow(name, "yes", r.Databases)
		} else {
			t.AddRow(name, "no", fmt.Sprintf(">%d", budget))
		}
	}
	row("Containment only", plain)
	row("With negative checks", negative)
	printExperiment("extension-negative", t.Render())
	for i := 0; i < b.N; i++ {
	}
}

// plannerBench builds one 10k-row indexed table on two engines: one with
// the cost-based planner, one forced to full scans (the differential
// baseline). Used by the access-path benchmarks below.
func plannerBench(b *testing.B, d dialect.Dialect) (planned, baseline *engine.Engine) {
	b.Helper()
	planned = engine.Open(d)
	baseline = engine.Open(d, engine.WithoutPlanner())
	stmts := append([]string{
		"CREATE TABLE t0(c0 INT, c1 TEXT)",
		"CREATE INDEX i0 ON t0(c0)",
	}, insertBatches("t0", 10000, 500, func(i int) string { return fmt.Sprintf("(%d, 'v%d')", i, i) })...)
	execAll(b, stmts, planned, baseline)
	return planned, baseline
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

// execAll runs a setup script on every engine.
func execAll(tb testing.TB, stmts []string, engines ...*engine.Engine) {
	tb.Helper()
	for _, e := range engines {
		for _, s := range stmts {
			if _, err := e.Exec(s); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkPointLookup measures the planner's headline win: an equality
// lookup on a 10k-row indexed table via the index-eq access path vs the
// forced full scan. The speedup metric is the acceptance criterion for the
// access-path planner (target: >= 5x).
func BenchmarkPointLookup(b *testing.B) {
	planned, baseline := plannerBench(b, dialect.SQLite)
	sel, err := sqlparse.ParseOne("SELECT c1 FROM t0 WHERE c0 = 6917", dialect.SQLite)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e *engine.Engine) {
		for i := 0; i < b.N; i++ {
			res, err := e.ExecStmt(sel)
			if err != nil || len(res.Rows) != 1 {
				b.Fatalf("rows=%d err=%v", len(res.Rows), err)
			}
		}
	}
	b.Run("index-scan", func(b *testing.B) { run(b, planned) })
	b.Run("full-scan", func(b *testing.B) { run(b, baseline) })
	// Self-measured speedup metric, computed once per process (manual
	// timing: testing.Benchmark may not be nested under b.Run, and the
	// parent body re-runs as b.N grows).
	speedupOnce.Do(func() {
		measure := func(e *engine.Engine, iters int) time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := e.ExecStmt(sel); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start) / time.Duration(iters)
		}
		idx := measure(planned, 2000)
		full := measure(baseline, 100)
		speedupVal = float64(full) / float64(idx)
		printExperiment("point-lookup", fmt.Sprintf(
			"Planner point lookup (10k rows): index %v/op vs full scan %v/op -> %.0fx speedup\n",
			idx, full, speedupVal))
	})
	b.ReportMetric(speedupVal, "x-speedup")
	for i := 0; i < b.N; i++ {
	}
}

var (
	speedupOnce sync.Once
	speedupVal  float64
)

// BenchmarkRangeScan measures a selective index range scan (100 of 10k
// rows) against the forced full scan.
func BenchmarkRangeScan(b *testing.B) {
	planned, baseline := plannerBench(b, dialect.SQLite)
	sel, err := sqlparse.ParseOne("SELECT c0 FROM t0 WHERE c0 >= 4000 AND c0 < 4100", dialect.SQLite)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e *engine.Engine) {
		for i := 0; i < b.N; i++ {
			res, err := e.ExecStmt(sel)
			if err != nil || len(res.Rows) != 100 {
				b.Fatalf("rows=%d err=%v", len(res.Rows), err)
			}
		}
	}
	b.Run("index-scan", func(b *testing.B) { run(b, planned) })
	b.Run("full-scan", func(b *testing.B) { run(b, baseline) })
}

// BenchmarkPlannerOverhead measures what access-path selection costs when
// it cannot help: a non-sargable WHERE on the indexed table, planner on
// vs off.
func BenchmarkPlannerOverhead(b *testing.B) {
	planned, baseline := plannerBench(b, dialect.SQLite)
	sel, err := sqlparse.ParseOne("SELECT c0 FROM t0 WHERE c0 % 7000 = 1", dialect.SQLite)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e *engine.Engine) {
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecStmt(sel); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("planner-on", func(b *testing.B) { run(b, planned) })
	b.Run("planner-off", func(b *testing.B) { run(b, baseline) })
}

// rowFilterShape is one BenchmarkRowFilter workload: a setup script and a
// query whose WHERE/ON clauses dominate execution.
type rowFilterShape struct {
	name  string
	setup []string
	query string
	rows  int // expected result size, asserted by measureRowFilter
}

// rowFilterShapes builds the two acceptance shapes for compiled expression
// programs: a wide single-table scan and a 3-way join. Neither table is
// indexed, so the planner cannot shortcut the filter — every row runs the
// predicate.
func rowFilterShapes() []rowFilterShape {
	scanSetup := append([]string{"CREATE TABLE t0(c0 INT, c1 TEXT, c2 REAL, c3 INT, c4 TEXT COLLATE NOCASE, c5 INT)"},
		insertBatches("t0", 4000, 500, func(i int) string {
			return fmt.Sprintf("(%d, 'v%d', %d.5, %d, 'K%d', %d)", i, i, i%97, i%13, i%7, i%29)
		})...)

	joinSetup := []string{
		"CREATE TABLE a(c0 INT, c1 TEXT)",
		"CREATE TABLE b(c0 INT, c1 INT)",
		"CREATE TABLE c(c0 INT, c1 INT)",
	}
	joinSetup = append(joinSetup, insertBatches("a", 25, 25, func(i int) string { return fmt.Sprintf("(%d, 'n%d')", i, i%5) })...)
	for _, table := range []string{"b", "c"} {
		joinSetup = append(joinSetup, insertBatches(table, 25, 25, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%5) })...)
	}

	return []rowFilterShape{
		{
			name:  "wide-scan",
			setup: scanSetup,
			query: "SELECT c0, c1 FROM t0 WHERE (c0 % 7 = 1 AND c2 > 40.0) OR (c4 = 'k3' AND c3 + c5 < 20) OR c1 LIKE 'v39%'",
			rows:  705,
		},
		{
			name:  "join-3way",
			setup: joinSetup,
			query: "SELECT a.c0, c.c1 FROM a JOIN b ON a.c0 = b.c0 AND b.c1 < 4 JOIN c ON b.c1 = c.c1 WHERE a.c1 <> 'n0' AND a.c0 + c.c0 > 3",
			rows:  74,
		},
	}
}

var (
	rowFilterOnce   sync.Once
	rowFilterRatios map[string]float64
)

// measureRowFilter computes the compiled-vs-interpreted time ratio per
// shape once per process (manual timing so the -benchtime=1x CI smoke
// still exercises it meaningfully).
func measureRowFilter(b *testing.B) map[string]float64 {
	rowFilterOnce.Do(func() {
		rowFilterRatios = map[string]float64{}
		for _, shape := range rowFilterShapes() {
			compiled := engine.Open(dialect.SQLite)
			interp := engine.Open(dialect.SQLite, engine.WithoutCompiledEval())
			execAll(b, shape.setup, compiled, interp)
			sel, err := sqlparse.ParseOne(shape.query, dialect.SQLite)
			if err != nil {
				b.Fatal(err)
			}
			measure := func(e *engine.Engine, iters int) time.Duration {
				// Warm once (compiles and caches the programs) and check
				// the workload hasn't degenerated: a predicate selecting
				// the wrong row count would make the ratio meaningless.
				res, err := e.ExecStmt(sel)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != shape.rows {
					b.Fatalf("%s: %d result rows, want %d — shape drifted", shape.name, len(res.Rows), shape.rows)
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := e.ExecStmt(sel); err != nil {
						b.Fatal(err)
					}
				}
				return time.Since(start) / time.Duration(iters)
			}
			ct := measure(compiled, 60)
			it := measure(interp, 60)
			rowFilterRatios[shape.name] = float64(it) / float64(ct)
			printExperiment("row-filter-"+shape.name, fmt.Sprintf(
				"Row filter (%s): compiled %v/op vs tree-walk %v/op -> %.1fx\n",
				shape.name, ct, it, rowFilterRatios[shape.name]))
		}
	})
	return rowFilterRatios
}

// BenchmarkRowFilter measures the compiled-expression tentpole: the same
// predicate-heavy queries through compiled programs vs the tree-walk
// interpreter, on a wide scan and a 3-way join. The self-measured ratio is
// a CI tripwire: the acceptance target is >= 2x, and the benchmark fails
// below a conservative 1.5x so a regression that erases the win cannot
// land silently (the -benchtime=1x smoke runs this on every push).
func BenchmarkRowFilter(b *testing.B) {
	for _, shape := range rowFilterShapes() {
		shape := shape
		for _, mode := range []struct {
			name string
			opts []engine.Option
		}{
			{"compiled", nil},
			{"tree-walk", []engine.Option{engine.WithoutCompiledEval()}},
		} {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				e := engine.Open(dialect.SQLite, mode.opts...)
				execAll(b, shape.setup, e)
				sel, err := sqlparse.ParseOne(shape.query, dialect.SQLite)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.ExecStmt(sel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The tripwire proper (printExperiment has already shown the ratios;
	// a parent benchmark that calls b.Run reports no metrics of its own).
	for name, r := range measureRowFilter(b) {
		if r < 1.5 {
			b.Errorf("compiled row filter only %.2fx tree-walk on %s (tripwire 1.5x, target 2x)", r, name)
		}
	}
}

var (
	schedOnce       sync.Once
	schedRatios     map[string]float64 // dialect -> scheduler/baseline dbs/s
	lifecycleOnce   sync.Once
	lifecycleRatios map[string]float64 // dialect -> lifecycle/newtester dbs/s
)

// measureSchedulerThroughput computes, per dialect, the dbs/s of a
// multi-campaign work-stealing sweep (shared pool, pooled lifecycles)
// against the per-database NewTester baseline the runner used before the
// scheduler existed: one goroutine, a fresh Tester and engine for every
// database. Same workload as BenchmarkCampaign/OracleThroughput/pqs
// (QueriesPerDB 20, soundness).
func measureSchedulerThroughput(b *testing.B) map[string]float64 {
	schedOnce.Do(func() {
		schedRatios = map[string]float64{}
		const perCampaign, campaigns = 100, 6
		for _, d := range dialect.All {
			total := perCampaign * campaigns

			start := time.Now()
			for i := 0; i < total; i++ {
				tester := core.NewTester(core.Config{Session: sut.Session{Dialect: d}, Seed: int64(i + 1), QueriesPerDB: 20})
				if _, err := tester.RunDatabase(); err != nil {
					b.Fatal(err)
				}
			}
			baseline := float64(total) / time.Since(start).Seconds()

			var cs []runner.Campaign
			for i := 0; i < campaigns; i++ {
				cs = append(cs, runner.Campaign{
					Dialect:      d,
					MaxDatabases: perCampaign,
					BaseSeed:     int64(1 + i*perCampaign),
					Tester:       core.Config{QueriesPerDB: 20},
				})
			}
			start = time.Now()
			s := &runner.Scheduler{}
			for _, r := range s.Sweep(context.Background(), cs) {
				if r.Detected {
					b.Fatalf("%s: soundness sweep false positive: %s", d, r.Bug.Message)
				}
			}
			sched := float64(total) / time.Since(start).Seconds()

			schedRatios[d.String()] = sched / baseline
			printExperiment("sched-"+d.String(), fmt.Sprintf(
				"Scheduler throughput (%s): %.0f dbs/s over one shared pool vs %.0f dbs/s per-database NewTester -> %.1fx\n",
				d, sched, baseline, sched/baseline))
		}
	})
	return schedRatios
}

// BenchmarkSchedulerThroughput is the campaign-scheduler tentpole's
// acceptance benchmark: many campaigns multiplexed over one shared
// work-stealing pool of resettable engine lifecycles must clear >= 1.5x
// the dbs/s of the per-database NewTester baseline on at least one
// dialect. The CI -benchtime=1x smoke runs this as a tripwire (skipped on
// boxes without enough cores for parallel speedup to be meaningful).
func BenchmarkSchedulerThroughput(b *testing.B) {
	ratios := measureSchedulerThroughput(b)
	best := 0.0
	for d, r := range ratios {
		b.ReportMetric(r, "x-"+d)
		if r > best {
			best = r
		}
	}
	if runtime.NumCPU() >= 4 && best < 1.5 {
		b.Errorf("scheduler sweep only %.2fx the NewTester baseline on the best dialect (tripwire 1.5x)", best)
	}
	for i := 0; i < b.N; i++ {
	}
}

// measureLifecycleReuse isolates the lifecycle-reuse half of the win from
// parallelism: the identical single-threaded seed sequence through one
// pooled Lifecycle (engine Reset + RNG reseed per database) vs a fresh
// NewTester per database.
func measureLifecycleReuse(b *testing.B) map[string]float64 {
	lifecycleOnce.Do(func() {
		lifecycleRatios = map[string]float64{}
		const dbs = 400
		for _, d := range dialect.All {
			cfg := core.Config{Session: sut.Session{Dialect: d}, QueriesPerDB: 20}

			start := time.Now()
			for i := 0; i < dbs; i++ {
				c := cfg
				c.Seed = int64(i + 1)
				if _, err := core.NewTester(c).RunDatabase(); err != nil {
					b.Fatal(err)
				}
			}
			fresh := float64(dbs) / time.Since(start).Seconds()

			lc := core.NewLifecycle(cfg)
			start = time.Now()
			for i := 0; i < dbs; i++ {
				if _, err := lc.RunSeed(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
			reused := float64(dbs) / time.Since(start).Seconds()
			lc.Close()

			lifecycleRatios[d.String()] = reused / fresh
			printExperiment("lifecycle-"+d.String(), fmt.Sprintf(
				"Lifecycle reuse (%s): %.0f dbs/s pooled+reset vs %.0f dbs/s NewTester per database -> %.2fx\n",
				d, reused, fresh, reused/fresh))
		}
	})
	return lifecycleRatios
}

// BenchmarkLifecycleReuse tracks the single-threaded reuse win (engine
// Reset, recycled storage containers, reseeded RNG vs full
// reconstruction). The tripwire only guards against reuse becoming a
// regression — the 1.5x acceptance gate lives on the scheduler benchmark,
// where pooling and work stealing compound.
func BenchmarkLifecycleReuse(b *testing.B) {
	ratios := measureLifecycleReuse(b)
	for d, r := range ratios {
		b.ReportMetric(r, "x-"+d)
		if r < 0.95 {
			b.Errorf("lifecycle reuse is a regression on %s: %.2fx the NewTester baseline", d, r)
		}
	}
	for i := 0; i < b.N; i++ {
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
// snapshot staging plus commit validation and merge — kept visible across
// PRs by the CI -benchtime=1x smoke.
func BenchmarkTxnThroughput(b *testing.B) {
	for _, mode := range []string{"txn", "autocommit"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for _, d := range dialect.All {
				d := d
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

var (
	hashJoinOnce    sync.Once
	hashJoinSpeedup float64
)

// hashJoinBenchEngines builds the 1k x 1k equi-join workload on two
// engines: join-strategy selection enabled and the -disable hashjoin nested
// baseline. Every key matches exactly once, so the join yields 1000 rows
// from a million-pair cross space — the shape where hashing pays most.
func hashJoinBenchEngines(b *testing.B) (hashed, nested *engine.Engine) {
	hashed = engine.Open(dialect.SQLite)
	nested = engine.Open(dialect.SQLite, engine.WithoutHashJoin())
	var stmts []string
	for _, tbl := range []string{"jb0", "jb1"} {
		stmts = append(stmts, fmt.Sprintf("CREATE TABLE %s(k INT, v TEXT)", tbl))
		stmts = append(stmts, insertBatches(tbl, 1000, 200, func(i int) string { return fmt.Sprintf("(%d, 'v%d')", i, i) })...)
	}
	execAll(b, stmts, hashed, nested)
	return hashed, nested
}

// BenchmarkHashJoin measures the join-strategy tentpole: a 1000x1000
// equi-join through the hash join vs the forced nested loop. The
// self-measured speedup is a CI tripwire: the acceptance target is >= 5x,
// and the benchmark fails below it so a planner regression that silently
// reverts joins to O(n*m) cannot land (the -benchtime=1x smoke runs this
// on every push).
func BenchmarkHashJoin(b *testing.B) {
	hashed, nested := hashJoinBenchEngines(b)
	sel, err := sqlparse.ParseOne(
		"SELECT COUNT(*) FROM jb0 JOIN jb1 ON jb0.k = jb1.k", dialect.SQLite)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e *engine.Engine) {
		for i := 0; i < b.N; i++ {
			res, err := e.ExecStmt(sel)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int64() != 1000 {
				b.Fatalf("rows=%v err=%v", res, err)
			}
		}
	}
	b.Run("hash", func(b *testing.B) { run(b, hashed) })
	b.Run("nested-loop", func(b *testing.B) { run(b, nested) })
	hashJoinOnce.Do(func() {
		measure := func(e *engine.Engine, iters int) time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := e.ExecStmt(sel); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start) / time.Duration(iters)
		}
		measure(hashed, 3) // warm both engines' compiled programs
		measure(nested, 1)
		ht := measure(hashed, 30)
		nt := measure(nested, 3)
		hashJoinSpeedup = float64(nt) / float64(ht)
		printExperiment("hash-join", fmt.Sprintf(
			"Equi-join (1k x 1k): hash %v/op vs nested loop %v/op -> %.0fx speedup\n",
			ht, nt, hashJoinSpeedup))
	})
	if hashJoinSpeedup < 5 {
		b.Errorf("hash join only %.1fx nested loop on 1k x 1k equi-join (acceptance target 5x)", hashJoinSpeedup)
	}
}

var (
	groupByOnce    sync.Once
	groupBySpeedup float64
)

// hashAggBenchEngines builds a 10k-row grouped workload with the given
// group-key cardinality on two engines: one with the streaming hash
// aggregate (the default) and one with WithoutHashAgg forcing the
// materialized per-group row retention it replaced.
func hashAggBenchEngines(tb testing.TB, groups int) (hashed, materialized *engine.Engine) {
	tb.Helper()
	hashed = engine.Open(dialect.SQLite)
	materialized = engine.Open(dialect.SQLite, engine.WithoutHashAgg())
	stmts := append([]string{"CREATE TABLE ab0(g INT, a INT, b REAL, c INT)"},
		insertBatches("ab0", 10000, 200, func(i int) string {
			return fmt.Sprintf("(%d, %d, %d.5, %d)", i%groups, i, i%100, i%7)
		})...)
	execAll(tb, stmts, hashed, materialized)
	return hashed, materialized
}

// groupByBenchSQL is the grouped shape both the benchmark and the
// allocation test measure: three accumulator aggregates over 10k rows.
const groupByBenchSQL = "SELECT g, COUNT(*), SUM(a), AVG(b) FROM ab0 GROUP BY g"

// BenchmarkGroupByHash measures the aggregation tentpole: 10k rows
// folding into 10 or 1000 groups through three streaming accumulators,
// against the forced materialized path that retains every row per group.
// The self-measured speedup on the 10-group shape is a CI tripwire: the
// acceptance target is >= 3x, and the benchmark fails below it so a
// regression that silently reverts GROUP BY to materialize-then-scan
// cannot land (the -benchtime=1x smoke runs this on every push).
func BenchmarkGroupByHash(b *testing.B) {
	sel, err := sqlparse.ParseOne(groupByBenchSQL, dialect.SQLite)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e *engine.Engine, groups int) {
		for i := 0; i < b.N; i++ {
			res, err := e.ExecStmt(sel)
			if err != nil || len(res.Rows) != groups {
				b.Fatalf("rows=%d err=%v", len(res.Rows), err)
			}
		}
	}
	for _, groups := range []int{10, 1000} {
		groups := groups
		hashed, materialized := hashAggBenchEngines(b, groups)
		b.Run(fmt.Sprintf("groups=%d/hash", groups), func(b *testing.B) {
			b.ReportAllocs()
			run(b, hashed, groups)
		})
		b.Run(fmt.Sprintf("groups=%d/materialized", groups), func(b *testing.B) {
			b.ReportAllocs()
			run(b, materialized, groups)
		})
		if groups != 10 {
			continue
		}
		groupByOnce.Do(func() {
			// Best-of-5 on both sides damps scheduler noise, and a GC fence
			// before each attempt keeps the materialized path's 3MB/op debris
			// from being collected on the hash path's clock: the tripwire
			// compares the engines, not the machine's load spikes.
			measure := func(e *engine.Engine, iters int) time.Duration {
				var best time.Duration
				for attempt := 0; attempt < 5; attempt++ {
					runtime.GC()
					start := time.Now()
					for i := 0; i < iters; i++ {
						if _, err := e.ExecStmt(sel); err != nil {
							b.Fatal(err)
						}
					}
					if el := time.Since(start) / time.Duration(iters); best == 0 || el < best {
						best = el
					}
				}
				return best
			}
			measure(hashed, 3) // warm both engines' compiled programs
			measure(materialized, 3)
			ht := measure(hashed, 30)
			mt := measure(materialized, 15)
			groupBySpeedup = float64(mt) / float64(ht)
			printExperiment("group-by-hash", fmt.Sprintf(
				"GROUP BY (10k rows, 10 groups, 3 aggregates): hash %v/op vs materialized %v/op -> %.1fx speedup\n",
				ht, mt, groupBySpeedup))
		})
		if groupBySpeedup < 3 {
			b.Errorf("hash aggregation only %.1fx materialized grouping on 10k rows/10 groups (acceptance target 3x)", groupBySpeedup)
		}
	}
}

// TestGroupByHashAllocs pins the "streaming" in streaming aggregation:
// executing the grouped benchmark query over 10k rows must allocate on
// the order of the group count, not the row count. The materialized path
// retains a per-group slice of every input row, so its allocations scale
// with rows; the accumulator path must stay under a bound a row-retaining
// implementation cannot meet.
func TestGroupByHashAllocs(t *testing.T) {
	hashed, _ := hashAggBenchEngines(t, 10)
	sel, err := sqlparse.ParseOne(groupByBenchSQL, dialect.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hashed.ExecStmt(sel); err != nil { // warm compiled programs
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := hashed.ExecStmt(sel); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("hash aggregation allocates %.0f times for 10k rows into 10 groups (want <=2000: bounded by groups, not rows)", allocs)
	}
}

// BenchmarkTopK measures the ordering half of the tentpole: ORDER BY
// with a small LIMIT over 10k rows through the bounded max-heap against
// the forced full sort, plus the same query without LIMIT (where both
// engines run the identical full sort, pinning the baseline).
func BenchmarkTopK(b *testing.B) {
	hashed, materialized := hashAggBenchEngines(b, 1000)
	queries := []struct {
		name, sql string
		rows      int
	}{
		{"limit10", "SELECT * FROM ab0 ORDER BY b, a LIMIT 10", 10},
		{"limit10-offset100", "SELECT * FROM ab0 ORDER BY b, a LIMIT 10 OFFSET 100", 10},
		{"full-sort", "SELECT * FROM ab0 ORDER BY b, a", 10000},
	}
	for _, q := range queries {
		sel, err := sqlparse.ParseOne(q.sql, dialect.SQLite)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			e    *engine.Engine
		}{{"topk", hashed}, {"full-sort", materialized}} {
			q, eng := q, eng
			b.Run(q.name+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := eng.e.ExecStmt(sel)
					if err != nil || len(res.Rows) != q.rows {
						b.Fatalf("rows=%d err=%v", len(res.Rows), err)
					}
				}
			})
		}
	}
}

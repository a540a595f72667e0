// Command benchreport regenerates every table and figure of the paper's
// evaluation (§4: Tables 1–4, Figures 2–3), the §3.4 throughput claim,
// the §6 fuzzer baseline, and the design ablations and §7 extension of
// DESIGN.md in one run, and prints them as Markdown or plain text. It is
// the only code that computes these results; any error (a missing source
// tree for the LOC columns, a failed run, a detection Table 3 has no
// column for) exits non-zero instead of printing partial numbers.
//
// Usage (from the repository root, whose Go sources the LOC columns count):
//
//	benchreport [-budget 2000] [-markdown]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fuzz"
	"repro/internal/oracle"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sqlparse"
	"repro/internal/sut"
	"repro/internal/sut/memengine"
)

func main() {
	budget := flag.Int("budget", 2000, "database budget per fault campaign")
	markdown := flag.Bool("markdown", false, "emit Markdown instead of plain text")
	flag.Parse()
	if err := run(*budget, *markdown); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(budget int, markdown bool) error {
	emit := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		if markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Render())
		}
		return nil
	}
	// Table 1 only counts source lines: a run outside the repository
	// fails here, before the sweep.
	t1, err := table1()
	if err != nil {
		return err
	}
	start := time.Now()
	results := sweep(budget)
	fmt.Printf("corpus sweep (%d campaigns, one scheduler pool) finished in %s\n\n",
		len(results), time.Since(start).Round(time.Millisecond))

	emit(t1, nil)
	emit(table2(results), nil)
	if err := emit(table3(results)); err != nil {
		return err
	}
	if err := emit(table4()); err != nil {
		return err
	}
	fmt.Println(figure2(results))
	fmt.Print(figure3(results))
	if err := emit(throughput()); err != nil {
		return err
	}
	if err := emit(baseline(budget / 4)); err != nil {
		return err
	}
	for _, build := range ablations {
		if err := emit(build(budget / 4)); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs every dialect's whole fault corpus through one shared
// work-stealing scheduler pool: one sweep, not 3 × N serial campaigns.
// Results come back in dialect.All order, each fault under the oracle its
// registry entry routes to, with reduced test cases.
func sweep(budget int) []runner.Result {
	var all []runner.Campaign
	for _, d := range dialect.All {
		all = append(all, runner.CorpusCampaigns(d, budget, 1, true)...)
	}
	s := &runner.Scheduler{}
	return s.Sweep(context.Background(), all)
}

// loc counts the non-test Go lines of internal/<dir> for each dir, from
// the repository root; outside the repository it fails rather than
// counting nothing.
func loc(dirs ...string) (int, error) {
	root := report.RepoRoot()
	total := 0
	for _, dir := range dirs {
		n, err := report.CountLOC(filepath.Join(root, "internal", dir))
		if err != nil {
			return 0, fmt.Errorf("counting LOC (run from the repository root): %w", err)
		}
		total += n
	}
	return total, nil
}

// table1 reproduces Table 1: the systems under test, their size, and
// their provenance — the paper's DBMS column mapped onto our dialect
// profiles.
func table1() (*report.Table, error) {
	substrate, err := loc("sqlval", "sqlast", "sqlparse", "schema", "storage", "eval", "engine", "xerr", "dialect", "faults")
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table 1: systems under test (paper's DBMS -> our dialect profiles)",
		Headers: []string{"DBMS", "Paper LOC", "Paper age (years)", "Our profile", "Shared substrate LOC"},
		Note:    "One engine substrate implements all three dialect profiles; the paper's targets are separate 20-year-old C codebases.",
	}
	t.AddRow("SQLite", "0.3M", 19, "sqlite (dynamic typing, affinity, collations)", substrate)
	t.AddRow("MySQL", "3.8M", 24, "mysql (coercions, unsigned, storage engines)", substrate)
	t.AddRow("PostgreSQL", "1.4M", 23, "postgres (strict typing, inheritance)", substrate)
	return t, nil
}

// table2 reproduces Table 2: bugs found per DBMS. Ground truth is the
// fault corpus; detected campaigns map onto the paper's fixed/verified
// reports.
func table2(results []runner.Result) *report.Table {
	t := &report.Table{
		Title:   "Table 2: detected injected bugs per dialect (paper: fixed+verified reports)",
		Headers: []string{"DBMS", "Faults", "Detected", "Missed", "Paper fixed+verified"},
		Note:    "Shape check: SQLite-profile yields the most bugs, PostgreSQL-profile the fewest (paper: 65 / 25 / 9).",
	}
	paper := map[dialect.Dialect]string{
		dialect.SQLite: "65", dialect.MySQL: "25", dialect.Postgres: "9",
	}
	for _, d := range dialect.All {
		n, det := 0, 0
		for _, r := range results {
			if r.Campaign.Dialect != d {
				continue
			}
			n++
			if r.Detected {
				det++
			}
		}
		t.AddRow(d.DisplayName(), n, det, n-det, paper[d])
	}
	return t
}

// table3Oracles is every faults.Oracle in Table 3's column order: the
// paper's three, then the metamorphic, durability and isolation oracles.
var table3Oracles = []faults.Oracle{
	faults.OracleContainment, faults.OracleError, faults.OracleCrash,
	faults.OracleTLP, faults.OracleNoREC, faults.OracleRecovery, faults.OracleSerializability,
}

// table3 reproduces Table 3: which oracle found each bug, extended with
// one column per oracle the paper's three miss, so each dialect's row
// sums to its Table 2 detections. A detection under an oracle with no
// column is an error.
func table3(results []runner.Result) (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 3: detections per oracle (paper: 61 contains / 34 error / 4 segfault)",
		Headers: []string{"DBMS"},
		Note:    "Shape check: containment >> error > segfault, as in the paper; TLP/NoREC add the PQS-blind metamorphic faults, recovery and serializability the durability and isolation faults.",
	}
	for _, o := range table3Oracles {
		t.Headers = append(t.Headers, string(o))
	}
	addRow := func(name string, counts map[faults.Oracle]int) {
		cells := []any{name}
		for _, o := range table3Oracles {
			cells = append(cells, counts[o])
		}
		t.AddRow(cells...)
	}
	sums := map[faults.Oracle]int{}
	for _, d := range dialect.All {
		counts := map[faults.Oracle]int{}
		for _, r := range results {
			if r.Campaign.Dialect != d || !r.Detected {
				continue
			}
			if !slices.Contains(table3Oracles, r.Bug.Oracle) {
				return nil, fmt.Errorf("table 3 has no column for %s's detecting oracle %q", r.Campaign.Fault, r.Bug.Oracle)
			}
			counts[r.Bug.Oracle]++
			sums[r.Bug.Oracle]++
		}
		addRow(d.DisplayName(), counts)
	}
	addRow("Sum", sums)
	return t, nil
}

// table4 reproduces Table 4: tester size vs tested-system size, and how
// much of the system a short testing run covers. Feature coverage stands
// in for gcov line coverage (see DESIGN.md): distinct engine features hit
// per dialect, relative to the union over all dialects.
func table4() (*report.Table, error) {
	testerLOC, err := loc("core", "gen", "interp", "oracle", "reduce", "runner")
	if err != nil {
		return nil, err
	}
	engineLOC, err := loc("engine", "eval", "storage", "schema", "sqlparse", "sqlast", "sqlval", "xerr")
	if err != nil {
		return nil, err
	}
	union := map[string]bool{}
	perDialect := map[dialect.Dialect]map[string]bool{}
	for _, d := range dialect.All {
		perDialect[d] = map[string]bool{}
		for seed := int64(1); seed <= 30; seed++ {
			e := engine.Open(d)
			tester := core.NewTesterWithDB(core.Config{Seed: seed, QueriesPerDB: 10}, memengine.Wrap(e, sut.Session{}))
			if _, err := tester.RunBoundDatabase(); err != nil {
				return nil, fmt.Errorf("table 4 coverage run (%s, seed %d): %w", d, seed, err)
			}
			for k := range e.Coverage().Snapshot() {
				perDialect[d][k] = true
				union[k] = true
			}
		}
	}
	t := &report.Table{
		Title:   "Table 4: tester size vs engine size and feature coverage (paper: 6501/3995/4981 tester LOC, 13.1/0.6/1.5% of the DBMS; 43/24/24% line coverage)",
		Headers: []string{"DBMS", "Tester LOC", "Engine LOC", "Size ratio", "Features hit", "Coverage"},
		Note:    "Shape check: the tester is a fraction of the engine's size, and a testing run covers well under all of it.",
	}
	for _, d := range dialect.All {
		t.AddRow(d.DisplayName(), testerLOC, engineLOC,
			fmt.Sprintf("%.1f%%", 100*float64(testerLOC)/float64(engineLOC)),
			len(perDialect[d]),
			fmt.Sprintf("%.1f%%", 100*float64(len(perDialect[d]))/float64(len(union))))
	}
	return t, nil
}

// reducedLengths is Figure 2's sample: one reduced test-case statement
// count per detection.
func reducedLengths(results []runner.Result) []int {
	var lengths []int
	for _, r := range results {
		if r.Detected {
			lengths = append(lengths, len(r.Reduced))
		}
	}
	return lengths
}

// figure2 reproduces Figure 2: the cumulative distribution of reduced
// test-case lengths.
func figure2(results []runner.Result) string {
	lengths := reducedLengths(results)
	return report.RenderCDF("Figure 2: CDF of reduced test-case statement counts", report.CDF(lengths)) +
		fmt.Sprintf("mean=%.2f median=%.1f max=%d (paper: mean 3.71, max 8)\n",
			report.Mean(lengths), report.Median(lengths), report.Max(lengths))
}

// figure3 reproduces Figure 3: which statement kinds appear in reduced
// test cases, annotated with the triggering oracle.
func figure3(results []runner.Result) string {
	var text string
	for _, d := range dialect.All {
		h := report.NewStatementHistogram()
		for _, r := range results {
			if r.Campaign.Dialect != d || !r.Detected {
				continue
			}
			var kinds []string
			for _, sql := range r.Reduced {
				if st, err := sqlparse.ParseOne(sql, d); err == nil {
					kinds = append(kinds, st.Kind())
				}
			}
			if len(kinds) > 0 {
				h.AddCase(kinds, kinds[len(kinds)-1], string(r.Bug.Oracle))
			}
		}
		text += h.Render(fmt.Sprintf("Figure 3 (%s): statement kinds in reduced test cases", d.DisplayName())) + "\n"
	}
	return text
}

// throughput reproduces the §3.4 claim: statements per second of one
// fault-free PQS lifecycle per dialect over 40 databases.
func throughput() (*report.Table, error) {
	t := &report.Table{
		Title:   "Throughput (paper: 5,000-20,000 statements/second)",
		Headers: []string{"DBMS", "Statements/s"},
	}
	for _, d := range dialect.All {
		r, err := lifecycleRun(core.Config{Session: sut.Session{Dialect: d}, QueriesPerDB: 20}, 40)
		if err != nil {
			return nil, fmt.Errorf("throughput run: %w", err)
		}
		t.AddRow(d.DisplayName(), fmt.Sprintf("%.0f", r.stmtsPerS))
	}
	return t, nil
}

// rate is the throughput of one lifecycleRun.
type rate struct {
	stats                            *core.Stats
	dbsPerS, stmtsPerS, queriesPerDB float64
}

// lifecycleRun runs seeds 1..dbs of cfg through one pooled
// core.Lifecycle, the path campaigns take. Every configuration measured
// here is fault-free, so a detection is an error.
func lifecycleRun(cfg core.Config, dbs int) (rate, error) {
	lc := core.NewLifecycle(cfg)
	defer lc.Close()
	start := time.Now()
	for seed := int64(1); seed <= int64(dbs); seed++ {
		bug, err := lc.RunSeed(seed)
		if err == nil && bug != nil {
			err = fmt.Errorf("false positive: %s", bug.Message)
		}
		if err != nil {
			return rate{}, fmt.Errorf("%s seed %d: %w", cfg.DSN(), seed, err)
		}
	}
	el := time.Since(start).Seconds()
	st := lc.Stats()
	return rate{st, float64(dbs) / el, float64(st.Statements) / el, float64(st.Queries) / float64(dbs)}, nil
}

// baseline reproduces the §6 argument: fuzzers cannot find logic bugs,
// PQS can. Each fault gets the same database budget under the oracle its
// registry entry routes to (PQS alone is blind to the TLP, NoREC,
// recovery and serializability faults) and under the fuzzer.
func baseline(budget int) (*report.Table, error) {
	var pqs, fuzzer, total [2]int // [0] logic, [1] error/crash
	for _, info := range faults.All() {
		kind := 1
		if info.Logic {
			kind = 0
		}
		total[kind]++
		if runner.Run(runner.Campaign{
			Dialect: info.Dialect, Fault: info.ID, MaxDatabases: budget, BaseSeed: 1,
			Oracles: []string{oracle.ForFault(info)},
		}).Detected {
			pqs[kind]++
		}
		for seed := int64(1); seed <= int64(budget); seed++ {
			f := fuzz.New(fuzz.Config{Session: sut.Session{Dialect: info.Dialect, Faults: faults.NewSet(info.ID)}, Seed: seed})
			bug, err := f.RunDatabase()
			if err != nil {
				return nil, fmt.Errorf("fuzzer baseline (%s, seed %d): %w", info.ID, seed, err)
			}
			if bug != nil {
				fuzzer[kind]++
				break
			}
		}
	}
	t := &report.Table{
		Title:   "Baseline comparison: PQS vs SQLsmith-style fuzzing (same budget)",
		Headers: []string{"Approach", "Logic bugs found", "Error/crash bugs found"},
		Note: fmt.Sprintf("Corpus: %d logic + %d error/crash faults, %d databases each. The fuzzer finds no logic bugs (§6: \"SQLsmith ... cannot find logic bugs found by our approach\").",
			total[0], total[1], budget),
	}
	t.AddRow("PQS family (each fault's oracle)", fmt.Sprintf("%d/%d", pqs[0], total[0]), fmt.Sprintf("%d/%d", pqs[1], total[1]))
	t.AddRow("Fuzzer baseline", fmt.Sprintf("%d/%d", fuzzer[0], total[0]), fmt.Sprintf("%d/%d", fuzzer[1], total[1]))
	return t, nil
}

// ablations build DESIGN.md's design ablations and the §7 extension, in
// its numbering; each takes the database budget per campaign.
var ablations = []func(budget int) (*report.Table, error){
	sharedEvaluator, rejectionSampling, generation, containmentForm, negativeContainment,
}

// hunt runs the PQS campaign for one fault under cfg's tester settings. A
// failed database lifecycle is an error: the campaign did not run clean.
func hunt(f faults.Fault, budget int, cfg core.Config) (runner.Result, error) {
	info, _ := faults.Lookup(f)
	r := runner.Run(runner.Campaign{Dialect: info.Dialect, Fault: f, MaxDatabases: budget, BaseSeed: 1, Tester: cfg})
	if r.Errors > 0 {
		return r, fmt.Errorf("%s campaign: %d failed databases: %w", f, r.Errors, r.Err)
	}
	return r, nil
}

// sharedEvaluator is ablation 1: using the engine's own evaluator as the
// oracle blinds PQS to evaluator-level logic bugs, the reason
// internal/interp exists.
func sharedEvaluator(budget int) (*report.Table, error) {
	evalFaults := []faults.Fault{
		faults.DoubleNegation, faults.TextIntSubtract, faults.AffinityCompare,
		faults.TextDoubleBool, faults.UnsignedCompare,
	}
	t := &report.Table{
		Title:   "Ablation 1: independent oracle interpreter vs sharing the engine's evaluator",
		Headers: []string{"Oracle", "Evaluator-level logic bugs found"},
		Note:    fmt.Sprintf("%d databases per fault. A shared evaluator computes the same wrong answer as the engine, so the containment check passes.", budget),
	}
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"Independent interpreter (PQS)", core.Config{}},
		{"Engine's own evaluator", core.Config{UseEngineAsOracle: true}},
	} {
		found := 0
		for _, f := range evalFaults {
			r, err := hunt(f, budget, mode.cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation 1: %w", err)
			}
			if r.Detected {
				found++
			}
		}
		t.AddRow(mode.name, fmt.Sprintf("%d/%d", found, len(evalFaults)))
	}
	return t, nil
}

// rejectionSampling is ablation 2: rectification against discarding the
// expressions that are not TRUE on the pivot row.
func rejectionSampling(budget int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation 2: rectification (Algorithm 3) vs rejection sampling",
		Headers: []string{"Strategy", "Queries issued", "Expressions discarded"},
		Note:    fmt.Sprintf("SQLite, %d databases of 30 queries each. Rectification keeps every expression the oracle interpreter can evaluate; rejection sampling also throws away the FALSE and NULL ones.", budget),
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"Rectification", false}, {"Rejection sampling", true}} {
		r, err := lifecycleRun(core.Config{Session: sut.Session{Dialect: dialect.SQLite}, QueriesPerDB: 30, DisableRectification: mode.disable}, budget)
		if err != nil {
			return nil, fmt.Errorf("ablation 2: %w", err)
		}
		t.AddRow(mode.name, r.stats.Queries, r.stats.Discarded)
	}
	return t, nil
}

// generation is ablations 3, 4 and 6 on SQLite: table size, expression
// depth, and how many queries run on one database before the next. Each
// row runs budget/25 databases: at 100 rows per table one database takes
// about a quarter second on 2 vCPUs, the join blowup ablation 3 shows.
func generation(budget int) (*report.Table, error) {
	dbs := max(1, budget/25)
	t := &report.Table{
		Title:   "Ablations 3, 4 and 6: generation parameters (SQLite, PQS)",
		Headers: []string{"Parameter", "Value", "Databases/s", "Statements/s", "Queries/database"},
		Note: fmt.Sprintf("%d databases per row. The paper keeps tables at 10-30 rows to avoid join blowup; deeper expressions exercise more operator combinations but cost throughput; "+
			"queries per database is Figure 1's \"continue with 1 or 2\".", dbs),
	}
	type row struct {
		param string
		value int
		cfg   core.Config
	}
	var rows []row
	for _, n := range []int{2, 8, 30, 100} {
		rows = append(rows, row{"Rows per table", n, core.Config{QueriesPerDB: 10, MinRows: n, MaxRows: n}})
	}
	for _, n := range []int{1, 2, 3, 5} {
		rows = append(rows, row{"Expression depth", n, core.Config{QueriesPerDB: 20, MaxExprDepth: n}})
	}
	for _, n := range []int{1, 10, 30, 100} {
		rows = append(rows, row{"Queries per database", n, core.Config{QueriesPerDB: n}})
	}
	for _, r := range rows {
		r.cfg.Dialect = dialect.SQLite
		res, err := lifecycleRun(r.cfg, dbs)
		if err != nil {
			return nil, fmt.Errorf("ablations 3, 4 and 6: %w", err)
		}
		t.AddRow(r.param, r.value, fmt.Sprintf("%.0f", res.dbsPerS), fmt.Sprintf("%.0f", res.stmtsPerS), fmt.Sprintf("%.1f", res.queriesPerDB))
	}
	return t, nil
}

// containmentForm is ablation 5: the client-side containment check
// against the paper's INTERSECT query form (§3.2 combines steps 6 and 7).
func containmentForm(budget int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation 5: containment check form (client-side vs INTERSECT query)",
		Headers: []string{"Probe fault", "Client-side row search", "INTERSECT query (paper)"},
		Note:    fmt.Sprintf("%d databases per campaign; a cell is the detecting database. Both forms are sound; the INTERSECT form pays an extra result-set pass in the engine.", budget),
	}
	for _, f := range []faults.Fault{faults.PartialIndexNotNull, faults.DoubleNegation, faults.InsertVisibility} {
		cells := []any{f}
		for _, cfg := range []core.Config{{}, {ContainmentViaQuery: true}} {
			r, err := hunt(f, budget, cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation 5: %w", err)
			}
			cells = append(cells, detection(r))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// negativeContainment measures the §7 extension: FALSE-rectified
// conditions whose pivot row must be absent (anticontainment).
func negativeContainment(budget int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Extension (§7): negative containment checks",
		Headers: []string{"Mode", "Detected at database", "Anticontainment"},
		Note: "Target: sqlite.is-not-null-opt, which rewrites NOT(x IS NULL) to TRUE. It adds rows, and under a further NOT it removes them, so ordinary containment can detect it too. " +
			"Anticontainment says whether the detecting check was a FALSE-rectified one, whose pivot row the query fetched although the condition excludes it.",
	}
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"Containment only", core.Config{}},
		{"With negative checks", core.Config{NegativeChecks: true}},
	} {
		r, err := hunt(faults.IsNotNullOpt, budget, mode.cfg)
		if err != nil {
			return nil, fmt.Errorf("§7 extension: %w", err)
		}
		negative := "-"
		switch {
		case r.Detected && r.Bug.Negative:
			negative = "yes"
		case r.Detected:
			negative = "no"
		}
		t.AddRow(mode.name, detection(r), negative)
	}
	return t, nil
}

// detection is a campaign's detecting database (its seed, counted from
// BaseSeed 1, which does not depend on the worker count), or "no" with
// the budget it exhausted.
func detection(r runner.Result) string {
	if !r.Detected {
		return fmt.Sprintf("no (>%d)", r.Campaign.MaxDatabases)
	}
	return fmt.Sprint(r.Seed)
}

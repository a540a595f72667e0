// Command benchreport regenerates every table and figure of the paper's
// evaluation in one run and prints them as Markdown (the source of
// EXPERIMENTS.md) or plain text.
//
// Usage:
//
//	benchreport [-budget 2000] [-markdown]
package main

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
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

var markdown = flag.Bool("markdown", false, "emit Markdown instead of plain text")

func emit(t *report.Table) {
	if *markdown {
		fmt.Println(t.Markdown())
	} else {
		fmt.Println(t.Render())
	}
}

func main() {
	budget := flag.Int("budget", 2000, "database budget per fault campaign")
	flag.Parse()

	start := time.Now()
	// Every dialect's whole fault corpus goes through one shared
	// work-stealing scheduler pool: one sweep, not 3 × N serial campaigns.
	var all []runner.Campaign
	spans := map[dialect.Dialect][2]int{}
	for _, d := range dialect.All {
		cs := runner.CorpusCampaigns(d, *budget, 1, true)
		spans[d] = [2]int{len(all), len(all) + len(cs)}
		all = append(all, cs...)
	}
	s := &runner.Scheduler{}
	swept := s.Sweep(context.Background(), all)
	data := map[dialect.Dialect][]runner.Result{}
	for _, d := range dialect.All {
		data[d] = swept[spans[d][0]:spans[d][1]]
	}
	fmt.Printf("corpus sweep (%d campaigns, one scheduler pool) finished in %s\n\n",
		len(all), time.Since(start).Round(time.Millisecond))

	table1()
	table2(data)
	table3(data)
	table4()
	figure2(data)
	figure3(data)
	throughput()
	baseline(*budget / 4)
}

func loc(dirs ...string) int {
	root := report.RepoRoot()
	total := 0
	for _, dir := range dirs {
		n, err := report.CountLOC(filepath.Join(root, "internal", dir))
		if err == nil {
			total += n
		}
	}
	return total
}

func table1() {
	substrate := loc("sqlval", "sqlast", "sqlparse", "schema", "storage", "eval", "engine", "xerr", "dialect", "faults")
	t := &report.Table{
		Title:   "Table 1: systems under test",
		Headers: []string{"DBMS", "Paper LOC", "Paper age", "Our profile substrate LOC"},
	}
	t.AddRow("SQLite", "0.3M", "19y", substrate)
	t.AddRow("MySQL", "3.8M", "24y", substrate)
	t.AddRow("PostgreSQL", "1.4M", "23y", substrate)
	emit(t)
}

func table2(data map[dialect.Dialect][]runner.Result) {
	t := &report.Table{
		Title:   "Table 2: detected injected bugs (paper: fixed+verified 65/25/9)",
		Headers: []string{"DBMS", "Faults", "Detected", "Missed"},
	}
	for _, d := range dialect.All {
		det := 0
		for _, r := range data[d] {
			if r.Detected {
				det++
			}
		}
		t.AddRow(d.DisplayName(), len(data[d]), det, len(data[d])-det)
	}
	emit(t)
}

// table3Oracles is every faults.Oracle in Table 3's column order, so each
// dialect's row sums to its Table 2 detections.
var table3Oracles = []faults.Oracle{
	faults.OracleContainment, faults.OracleError, faults.OracleCrash,
	faults.OracleTLP, faults.OracleNoREC, faults.OracleRecovery, faults.OracleSerializability,
}

func table3(data map[dialect.Dialect][]runner.Result) {
	t := &report.Table{
		Title:   "Table 3: detections per oracle (paper: 61/34/4 contains/error/segfault)",
		Headers: []string{"DBMS"},
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
		for _, r := range data[d] {
			if r.Detected {
				counts[r.Bug.Oracle]++
				sums[r.Bug.Oracle]++
			}
		}
		addRow(d.DisplayName(), counts)
	}
	addRow("Sum", sums)
	emit(t)
}

func table4() {
	testerLOC := loc("core", "gen", "interp", "oracle", "reduce", "runner")
	engineLOC := loc("engine", "eval", "storage", "schema", "sqlparse", "sqlast", "sqlval", "xerr")
	features := map[dialect.Dialect]int{}
	union := map[string]bool{}
	perDialect := map[dialect.Dialect]map[string]bool{}
	for _, d := range dialect.All {
		perDialect[d] = map[string]bool{}
		for seed := int64(1); seed <= 30; seed++ {
			e := engine.Open(d)
			tester := core.NewTesterWithDB(core.Config{Seed: seed, QueriesPerDB: 10}, memengine.Wrap(e, sut.Session{}))
			if _, err := tester.RunBoundDatabase(); err != nil {
				continue
			}
			for k := range e.Coverage().Snapshot() {
				perDialect[d][k] = true
				union[k] = true
			}
		}
		features[d] = len(perDialect[d])
	}
	t := &report.Table{
		Title:   "Table 4: tester vs engine size and feature coverage (paper: 13.1/0.6/1.5% size; 43/24/24% coverage)",
		Headers: []string{"DBMS", "Tester LOC", "Engine LOC", "Size ratio", "Coverage"},
	}
	for _, d := range dialect.All {
		t.AddRow(d.DisplayName(), testerLOC, engineLOC,
			fmt.Sprintf("%.1f%%", 100*float64(testerLOC)/float64(engineLOC)),
			fmt.Sprintf("%.1f%%", 100*float64(features[d])/float64(len(union))))
	}
	emit(t)
}

func figure2(data map[dialect.Dialect][]runner.Result) {
	var lengths []int
	for _, d := range dialect.All {
		for _, r := range data[d] {
			if r.Detected {
				lengths = append(lengths, len(r.Reduced))
			}
		}
	}
	fmt.Println(report.RenderCDF("Figure 2: CDF of reduced test-case statement counts", report.CDF(lengths)))
	fmt.Printf("mean=%.2f median=%.1f max=%d (paper: mean 3.71, max 8)\n\n",
		report.Mean(lengths), report.Median(lengths), report.Max(lengths))
}

func figure3(data map[dialect.Dialect][]runner.Result) {
	for _, d := range dialect.All {
		h := report.NewStatementHistogram()
		for _, r := range data[d] {
			if !r.Detected || len(r.Reduced) == 0 {
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
		fmt.Println(h.Render(fmt.Sprintf("Figure 3 (%s): statement kinds in reduced test cases", d.DisplayName())))
	}
}

func throughput() {
	t := &report.Table{
		Title:   "Throughput (paper: 5,000-20,000 statements/second)",
		Headers: []string{"DBMS", "Statements/s"},
	}
	for _, d := range dialect.All {
		tester := core.NewTester(core.Config{Session: sut.Session{Dialect: d}, Seed: 1, QueriesPerDB: 20})
		start := time.Now()
		for i := 0; i < 40; i++ {
			if _, err := tester.RunDatabase(); err != nil {
				break
			}
		}
		el := time.Since(start).Seconds()
		t.AddRow(d.DisplayName(), fmt.Sprintf("%.0f", float64(tester.Stats().Statements)/el))
	}
	emit(t)
}

func baseline(budget int) {
	pqsLogic, fuzzLogic, logicTotal := 0, 0, 0
	for _, info := range faults.All() {
		if !info.Logic {
			continue
		}
		logicTotal++
		// Each fault runs under the oracle its registry entry routes to,
		// as BenchmarkBaselineComparison does: PQS alone is blind to the
		// TLP, NoREC, recovery and serializability faults.
		if runner.Run(runner.Campaign{
			Dialect: info.Dialect, Fault: info.ID, MaxDatabases: budget, BaseSeed: 1,
			Oracles: []string{oracle.ForFault(info)},
		}).Detected {
			pqsLogic++
		}
		for seed := int64(1); seed <= int64(budget); seed++ {
			f := fuzz.New(fuzz.Config{Session: sut.Session{Dialect: info.Dialect, Faults: faults.NewSet(info.ID)}, Seed: seed})
			if bug, _ := f.RunDatabase(); bug != nil {
				fuzzLogic++
				break
			}
		}
	}
	t := &report.Table{
		Title:   "Baseline: logic bugs found (fuzzers cannot see logic bugs)",
		Headers: []string{"Approach", "Logic bugs"},
	}
	t.AddRow("PQS family (each fault's oracle)", fmt.Sprintf("%d/%d", pqsLogic, logicTotal))
	t.AddRow("Fuzzer", fmt.Sprintf("%d/%d", fuzzLogic, logicTotal))
	emit(t)
}

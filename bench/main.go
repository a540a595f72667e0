// Command bench is the campaign benchmark. It sweeps fault-free soaks
// through runner.Scheduler, the entry point users drive, and reports
// database and statement throughput, allocation and set-up time; every
// detection on the fault-free engine is a false positive and counts as a
// failed operation. With -trace 1 it also runs one single-worker pass
// with spans recorded around the calls into each layer and reports the
// per-layer breakdown.
//
// Run one workload the way BENCHMARK.json runs it, from the root of the
// repository:
//
//	bash bench/run.sh --workload pqs --seed 1 --seconds 30 --trace 0
//
// or every workload from this directory:
//
//	go run . [-seed 1] [-seconds 30] [-trace 1] [-out result.json] [-spans spans.jsonl]
//
// The last line of standard output is the JSON result of the last workload
// run. README.md defines the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passSummary is one timed pass in a report.
type passSummary struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	StolenS float64 `json:"stolen_s"`
	DBs     int     `json:"dbs"`
	Stmts   int     `json:"stmts"`
}

// report is one workload's full outcome, written by -out.
type report struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Seconds  int           `json:"seconds"`
	Trace    bool          `json:"trace"`
	Passes   []passSummary `json:"passes"`
	Result   result        `json:"result"`
	Findings []finding     `json:"findings"`
	Problems []string      `json:"problems"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(names(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Int("seconds", 30, "wall time of the timed passes")
		trace   = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced single-worker pass instead of the end-to-end metrics")
		out     = flag.String("out", "", "write the full JSON report of every workload run to this file")
		spans   = flag.String("spans", "", "write the spans of the traced passes to this file, one JSON object per line (needs -trace 1)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || (*spans != "" && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	run := workloads
	if *name != "all" {
		w := lookup(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}

	var reports []report
	correct := true
	for _, w := range run {
		rep := runWorkload(w, *seed, *seconds, *trace == 1, *spans != "")
		printReport(os.Stdout, rep)
		reports = append(reports, rep)
		correct = correct && rep.Result.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, reports); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *spans != "" {
		if err := rec.writeFile(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload sets up, runs the timed passes for seconds, audits them, and
// computes the end-to-end metrics, or with traced the per-layer metrics
// (keepSpans retains the traced pass's spans for writing).
func runWorkload(w *workload, seed int64, seconds int, traced, keepSpans bool) report {
	setupTimes := setup(w, seed)
	passes := timed(w, seed, seconds)
	var a audit
	for _, p := range passes {
		a.check(w, p.results)
	}
	m := endToEnd(passes, setupTimes)
	if traced {
		m = perLayer(passes, &a, keepSpans)
	}
	var summaries []passSummary
	for _, p := range passes {
		summaries = append(summaries, passSummary{p.wall.Seconds(), p.used.cpu.Seconds(), p.used.stolen.Seconds(), p.dbs(), p.stmts()})
	}
	return report{
		Workload: w.name,
		Seed:     seed,
		Seconds:  seconds,
		Trace:    traced,
		Passes:   summaries,
		Result: result{
			Correct:   len(a.problems) == 0,
			Attempted: a.attempted,
			Failed:    len(a.findings),
			Metrics:   m,
		},
		Findings: a.findings,
		Problems: a.problems,
	}
}

// endToEnd computes the metrics a user of a campaign sees. Every timing
// is the median over the passes of a run, of the time each ran.
func endToEnd(passes []pass, setupTimes []float64) map[string]metric {
	var dbs, stmts, alloc []float64
	for _, p := range passes {
		n, t := float64(p.dbs()), p.ran().Seconds()
		dbs = append(dbs, n/t)
		stmts = append(stmts, float64(p.stmts())/t)
		alloc = append(alloc, float64(p.used.bytes)/n)
	}
	return map[string]metric{
		"dbs_per_s":          {median(dbs), "db/s"},
		"stmts_per_s":        {median(stmts), "stmt/s"},
		"alloc_bytes_per_db": {median(alloc), "B/db"},
		"setup_s":            {median(setupTimes), "s"},
	}
}

// printReport writes the human-readable metric lines, any findings and
// problems, and then the result as one JSON line.
func printReport(w io.Writer, rep report) {
	keys := make([]string, 0, len(rep.Result.Metrics))
	for k := range rep.Result.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.Result.Metrics[k]
		fmt.Fprintf(w, "%-12s %-36s %16.6g %s\n", rep.Workload, k, m.Value, m.Unit)
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "%-12s false positive: %s %s seed=%d replays=%v %s\n", rep.Workload, f.Dialect, f.Oracle, f.Seed, f.Replays, f.Message)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "%-12s PROBLEM: %s\n", rep.Workload, p)
	}
	line, _ := json.Marshal(rep.Result) // plain structs and finite floats always marshal
	fmt.Fprintf(w, "%s\n", line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

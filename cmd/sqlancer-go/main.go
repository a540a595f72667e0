// Command sqlancer-go runs PQS, fuzzer, or differential campaigns against
// the engine substrate, mirroring how SQLancer is driven against a real
// DBMS.
//
// Usage:
//
//	sqlancer-go -dialect sqlite -fault sqlite.partial-index-not-null -max-dbs 500
//	sqlancer-go -dialect sqlite -oracle pqs,tlp,norec -fault sqlite.union-all-dedup
//	sqlancer-go -dialect sqlite -corpus -max-dbs 2000
//	sqlancer-go -dialect mysql -mode fuzz -max-dbs 200
//	sqlancer-go -mode diff -dialect sqlite -right postgres
//	sqlancer-go -backend wire -dialect sqlite -fault sqlite.partial-index-not-null
//	sqlancer-go -storage pager -oracle recovery -fault pager.wal-lost-flush
//	sqlancer-go -disable hashjoin,compile -fault sqlite.hash-join-collation
//	sqlancer-go -oracle serializability -fault engine.lost-update -sessions 3
//	sqlancer-go -list-faults
//
// -corpus sweeps every registered fault of the dialect in one run: all
// campaigns multiplex over one shared work-stealing scheduler pool of
// pooled, resettable engine sessions (-workers sizes the pool), each
// fault routed to the oracle its registry entry expects, with -max-dbs
// as the per-fault budget. Detections report the canonical lowest seed,
// so corpus results are reproducible regardless of the worker count; the
// summary line's errors= counts database lifecycles that failed.
//
// A campaign prints "no bug detected within budget" only when every
// database lifecycle ran to completion. When some failed (for example
// -oracle serializability on the single-session wire backend), it prints
// their count and the first error instead and exits 1.
//
// -oracle selects the testing oracles of a pqs-mode campaign
// (comma-separated: pqs, tlp, norec) — databases round-robin across them,
// and the reproduction script records which oracle fired. -backend selects
// the SUT driver (memengine drives the engine in process with the ExecAST
// fast path; wire goes through database/sql); -wire-fidelity keeps the
// memengine backend but re-renders and reparses every statement, for
// parser coverage. -disable switches engine features off for A/B runs,
// as a comma-separated list of planner (full scans only), compile
// (tree-walk evaluation; DESIGN.md "Compiled expression programs" and
// "Metamorphic oracles"), hashjoin (nested-loop joins only; DESIGN.md
// "Join execution & strategy selection") and hashagg (materialized
// grouping and full sorts instead of hash aggregation and top-K; DESIGN.md
// "Aggregation & ordering execution"). The three hash-join faults are
// unreachable under -disable hashjoin, the three hash-agg faults under
// -disable hashagg.
//
// -storage pager runs every session on the durable page-file + WAL
// backend instead of in memory. The recovery-equivalence oracle
// (-oracle recovery, or any pager.* fault in a -corpus sweep) requires
// it and enables it automatically; passing it explicitly subjects any
// other campaign to the durable storage path too (see DESIGN.md
// "Durable storage & crash recovery").
//
// -oracle serializability runs interleaved multi-session transaction
// histories against each generated database and checks every one against
// an equivalent serial order (the engine.* isolation faults are visible
// only to it; see DESIGN.md "Transactions & serializability checking").
// -sessions fixes the concurrent-session count per history (default: a
// seed-derived 2 or 3). It requires a multi-session backend (memengine;
// the wire backend pins one session per database).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/diffdb"
	"repro/internal/faults"
	"repro/internal/fuzz"
	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/sut"
	_ "repro/internal/sut/memengine"
	_ "repro/internal/sut/wire"
)

func main() {
	var (
		dialectFlag = flag.String("dialect", "sqlite", "dialect profile: sqlite, mysql, postgres")
		mode        = flag.String("mode", "pqs", "campaign mode: pqs, fuzz, diff")
		faultFlag   = flag.String("fault", "", "injected fault to hunt (empty = soundness run)")
		rightFlag   = flag.String("right", "postgres", "right-hand dialect for -mode diff")
		maxDBs      = flag.Int("max-dbs", 500, "database budget")
		workers     = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 1, "base seed")
		rows        = flag.Int("rows", 8, "max rows per table")
		depth       = flag.Int("depth", 3, "max expression depth")
		queries     = flag.Int("queries", 30, "pivot queries per database")
		doReduce    = flag.Bool("reduce", true, "reduce detected test cases")
		oracleFlag  = flag.String("oracle", "pqs", "comma-separated testing oracles to rotate across databases: pqs, tlp, norec, recovery, serializability")
		sessions    = flag.Int("sessions", 0, "concurrent sessions per serializability history (0 = seed-derived 2 or 3)")
		backend     = flag.String("backend", sut.DefaultBackend, "SUT backend: memengine, wire")
		storageFlag = flag.String("storage", "", "storage mode: memory (default) or pager (durable page file + WAL; required by the recovery oracle)")
		wireFid     = flag.Bool("wire-fidelity", false, "render+reparse each statement instead of the AST fast path")
		disableFlag = flag.String("disable", "", "comma-separated engine features to switch off: "+strings.Join(sut.Ablations(), ", "))
		corpusFlag  = flag.Bool("corpus", false, "sweep every registered fault of the dialect through one shared scheduler pool (-max-dbs is the per-fault budget)")
		listFaults  = flag.Bool("list-faults", false, "print the fault registry and exit")
	)
	flag.Parse()

	if *listFaults {
		for _, info := range faults.All() {
			fmt.Printf("%-38s %-10s %-9s %-13s %s (%s)\n",
				info.ID, info.Dialect, info.Oracle, info.Class, info.Desc, info.Paper)
		}
		return
	}

	d, err := dialect.Parse(*dialectFlag)
	if err != nil {
		fatal(err)
	}
	fault := parseFault(*faultFlag)
	sess := sut.Session{Dialect: d, Storage: *storageFlag, WireFidelity: *wireFid}
	if fault != "" {
		sess.Faults = faults.NewSet(fault)
	}
	if err := sess.Disable(*disableFlag); err != nil {
		fatal(err)
	}
	cfg := core.Config{
		Session:      sess,
		Seed:         *seed,
		MaxRows:      *rows,
		MaxExprDepth: *depth,
		QueriesPerDB: *queries,
		Backend:      *backend,
		Sessions:     *sessions,
	}

	if *corpusFlag {
		if *mode != "pqs" {
			fatal(fmt.Errorf("-corpus applies to -mode pqs only"))
		}
		if fault != "" {
			fatal(fmt.Errorf("-corpus sweeps every fault; drop -fault"))
		}
		if *oracleFlag != "pqs" {
			fatal(fmt.Errorf("-corpus routes each fault to its registry oracle; drop -oracle"))
		}
		runCorpus(cfg, *maxDBs, *workers, *doReduce)
		return
	}

	switch *mode {
	case "pqs":
		runPQS(cfg, fault, *maxDBs, *workers, *doReduce, parseOracles(*oracleFlag))
	case "fuzz":
		runFuzz(sess, *backend, *maxDBs, *seed, *queries)
	case "diff":
		// diffdb opens its own string-based sessions: there is no AST fast
		// path to opt out of, and neither engine features nor storage are
		// plumbed through it. Reject rather than silently ignore.
		if *wireFid {
			fatal(fmt.Errorf("-wire-fidelity does not apply to -mode diff"))
		}
		if *disableFlag != "" {
			fatal(fmt.Errorf("-disable does not apply to -mode diff"))
		}
		if *storageFlag != "" && *storageFlag != "memory" {
			fatal(fmt.Errorf("-storage does not apply to -mode diff"))
		}
		r, err := dialect.Parse(*rightFlag)
		if err != nil {
			fatal(err)
		}
		runDiff(d, r, sess.Faults, *backend, *maxDBs, *seed)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlancer-go:", err)
	os.Exit(1)
}

func parseFault(name string) faults.Fault {
	if name == "" {
		return ""
	}
	f := faults.Fault(name)
	if _, ok := faults.Lookup(f); !ok {
		fatal(fmt.Errorf("unknown fault %q (try -list-faults)", name))
	}
	return f
}

// parseOracles splits and validates the -oracle list against the registry.
func parseOracles(list string) []string {
	var out []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := oracle.New(name, oracle.Options{}); err != nil {
			fatal(err)
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		out = []string{"pqs"}
	}
	return out
}

// runPQS hunts one fault (none for a soundness run) with the oracles
// rotating across databases; cfg.Seed is the campaign's base seed.
func runPQS(cfg core.Config, fault faults.Fault, maxDBs, workers int, doReduce bool, oracles []string) {
	res := runner.Run(runner.Campaign{
		Dialect:      cfg.Dialect,
		Fault:        fault,
		MaxDatabases: maxDBs,
		Workers:      workers,
		BaseSeed:     cfg.Seed,
		Reduce:       doReduce,
		Oracles:      oracles,
		Tester:       cfg,
	})
	fmt.Printf("dialect=%s fault=%s oracles=%s databases=%d statements=%d queries=%d elapsed=%s\n",
		cfg.Dialect, fault, strings.Join(oracles, ","), res.Databases, res.Stats.Statements, res.Stats.Queries, res.Elapsed.Round(1000000))
	if !res.Detected {
		if res.Errors > 0 {
			fatal(fmt.Errorf("%d of %d databases failed; first error: %w", res.Errors, res.Databases, res.Err))
		}
		fmt.Println("no bug detected within budget")
		return
	}
	fmt.Printf("BUG found by the %s oracle (%s verdict): %s\n", res.Bug.DetectedBy, res.Bug.Oracle, res.Bug.Message)
	fmt.Printf("reduced test case (%d statements):\n", len(res.Reduced))
	fmt.Printf("  -- oracle: %s (%s)\n", res.Bug.DetectedBy, res.Bug.Oracle)
	for _, sql := range res.Reduced {
		fmt.Printf("  %s;\n", sql)
	}
	if res.Bug.Compare != "" {
		fmt.Printf("  -- compare against: %s;\n", res.Bug.Compare)
	}
}

// runCorpus hunts the dialect's whole fault corpus in one work-stealing
// sweep: one scheduler pool multiplexes every per-fault campaign, each
// routed to its registry oracle.
func runCorpus(cfg core.Config, maxDBs, workers int, doReduce bool) {
	start := time.Now()
	cs := runner.CorpusCampaigns(cfg.Dialect, maxDBs, cfg.Seed, doReduce)
	for i := range cs {
		cs[i].Tester = cfg
	}
	s := &runner.Scheduler{Workers: workers}
	results := s.Sweep(context.Background(), cs)
	detected, databases, errs := 0, 0, 0
	for _, r := range results {
		databases += r.Databases
		errs += r.Errors
		status := "missed"
		if r.Detected {
			detected++
			status = fmt.Sprintf("detected seed=%d dbs=%d oracle=%s (%s)", r.Seed, r.Databases, r.Bug.DetectedBy, r.Bug.Oracle)
		}
		fmt.Printf("%-40s %s\n", r.Campaign.Fault, status)
	}
	fmt.Printf("corpus: %d/%d faults detected, %d databases errors=%d in %s (one shared scheduler pool)\n",
		detected, len(results), databases, errs, time.Since(start).Round(time.Millisecond))
}

func runFuzz(sess sut.Session, backend string, maxDBs int, seed int64, queries int) {
	for i := 0; i < maxDBs; i++ {
		f := fuzz.New(fuzz.Config{Session: sess, Seed: seed + int64(i), QueriesPerDB: queries, Backend: backend})
		bug, err := f.RunDatabase()
		if err != nil {
			fatal(err)
		}
		if bug != nil {
			fmt.Printf("fuzzer detection after %d databases (%s oracle): %s\n", i+1, bug.Oracle, bug.Message)
			for _, sql := range bug.Trace {
				fmt.Printf("  %s;\n", sql)
			}
			return
		}
	}
	fmt.Printf("fuzzer: no detection in %d databases (logic bugs are invisible to fuzzing)\n", maxDBs)
}

func runDiff(left, right dialect.Dialect, fs *faults.Set, backend string, maxDBs int, seed int64) {
	for i := 0; i < maxDBs; i++ {
		s := diffdb.New(diffdb.Config{
			Pair:    [2]dialect.Dialect{left, right},
			Seed:    seed + int64(i),
			Faults:  fs,
			Backend: backend,
		})
		m, err := s.RunDatabase()
		if err != nil {
			fatal(err)
		}
		if m != nil {
			fmt.Printf("differential mismatch after %d databases on %q\n", i+1, m.Query)
			if m.Err != "" {
				fmt.Println(" ", m.Err)
			} else {
				fmt.Printf("  %s: %s\n  %s: %s\n", left, strings.Join(m.LeftRes, " / "),
					right, strings.Join(m.RightRes, " / "))
			}
			return
		}
	}
	fmt.Printf("differential: no mismatch in %d databases\n", maxDBs)
}

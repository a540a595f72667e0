// Command dbshell is a minimal interactive shell over a SUT backend, for
// manual exploration of the dialects and the injected bug corpus.
//
// Usage:
//
//	dbshell -dialect sqlite [-backend memengine|wire] [-storage pager] [-fault sqlite.partial-index-not-null] [-disable planner,compile,hashjoin,hashagg]
//
// Statements end with ';'. Meta commands: .tables, .schema <t>,
// .plan <select>, .oracle <name>, .begin, .commit, .rollback,
// .snapshot, .restore, .reset, .storage, .timer [on|off], .backend,
// .quit.
// `.begin`, `.commit`, and `.rollback` control a transaction on the
// shell's session (shorthand for the BEGIN/COMMIT/ROLLBACK statements):
// writes stage against a private snapshot until commit, which fails with
// a conflict error if a concurrent commit touched the same tables.
// `.snapshot` captures the database's data copy-on-write and `.restore`
// rewinds to it (fixed schema; handy for replaying DML against an
// injected fault), while `.reset` rewinds the whole database to the
// pristine state of a fresh open.
// `EXPLAIN [QUERY PLAN] <select>;` also works as a statement and reports
// the planner's chosen access path per FROM source. `.timer on` prints
// per-statement wall time — combined with -disable compile it A/B-tests
// compiled expression programs against the tree-walk interpreter.
// `.oracle <name>` runs one-shot checks of a registered testing oracle
// (pqs, tlp, norec, recovery, serializability) against the shell's
// current database — handy for watching an injected fault (-fault) get
// caught interactively.
// `-storage pager` opens the shell's database on the durable page-file +
// WAL backend (the recovery oracle requires it); `.storage` prints the
// storage mode and the pager's work counters.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	// The blank core import registers the "pqs" oracle (PQS's pivot
	// machinery lives there; see internal/core/oracle_pqs.go).
	_ "repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	_ "repro/internal/sut/memengine"
	_ "repro/internal/sut/wire"
)

func main() {
	var (
		dialectFlag = flag.String("dialect", "sqlite", "dialect profile")
		backendFlag = flag.String("backend", sut.DefaultBackend, "SUT backend (memengine, wire)")
		faultFlag   = flag.String("fault", "", "comma-separated faults to inject")
		disableFlag = flag.String("disable", "", "comma-separated engine features to switch off: "+strings.Join(sut.Ablations(), ", "))
		storageFlag = flag.String("storage", "", "storage mode: memory (default) or pager (durable page file + WAL)")
	)
	flag.Parse()

	d, err := dialect.Parse(*dialectFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sess := sut.Session{Dialect: d, Storage: *storageFlag}
	if err := sess.Disable(*disableFlag); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *faultFlag != "" {
		fs := faults.NewSet()
		for _, name := range strings.Split(*faultFlag, ",") {
			f := faults.Fault(strings.TrimSpace(name))
			if _, ok := faults.Lookup(f); !ok {
				fmt.Fprintf(os.Stderr, "unknown fault %q\n", name)
				os.Exit(1)
			}
			fs.Enable(f)
		}
		sess.Faults = fs
	}
	db, err := sut.Open(*backendFlag, sess)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	fmt.Printf("dbshell: %s profile on %q backend; end statements with ';', .quit to exit\n",
		d.DisplayName(), *backendFlag)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if !meta(db, *backendFlag, trimmed) {
				return
			}
			fmt.Print("> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			run(db, buf.String())
			buf.Reset()
		}
		fmt.Print("> ")
	}
}

func meta(db sut.DB, backend, cmd string) bool {
	intro := db.Introspect()
	switch {
	case cmd == ".quit" || cmd == ".exit":
		return false
	case cmd == ".backend":
		fmt.Printf("%s (registered: %s)\n", backend, strings.Join(sut.Drivers(), ", "))
	case cmd == ".tables":
		for _, t := range intro.Tables() {
			fmt.Println(t)
		}
		for _, v := range intro.Views() {
			fmt.Println(v, "(view)")
		}
	case strings.HasPrefix(cmd, ".schema"):
		name := strings.TrimSpace(strings.TrimPrefix(cmd, ".schema"))
		info, err := intro.Describe(name)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, c := range info.Columns {
			fmt.Printf("  %s %s (affinity %s, collate %s)\n", c.Name, c.TypeName, c.Affinity, c.Collate)
		}
		for _, ix := range intro.Indexes(name) {
			fmt.Printf("  index %s\n", ix)
		}
	case strings.HasPrefix(cmd, ".plan"):
		query := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(cmd, ".plan")), ";")
		paths, err := db.Plan(query)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, p := range paths {
			fmt.Println(" ", p)
		}
	case cmd == ".reset":
		r, ok := db.(sut.Resetter)
		if !ok {
			fmt.Println("error: backend cannot reset in place")
			return true
		}
		if err := r.Reset(); err != nil {
			fmt.Println("error:", err)
			return true
		}
		savedSnapshot = nil
		fmt.Println("database reset to pristine state")
	case cmd == ".snapshot":
		s, ok := db.(snapshotter)
		if !ok {
			fmt.Println("error: backend does not support data snapshots")
			return true
		}
		savedSnapshot = s.Snapshot()
		fmt.Println("data snapshot saved (valid until the next schema change)")
	case cmd == ".restore":
		s, ok := db.(snapshotter)
		if !ok {
			fmt.Println("error: backend does not support data snapshots")
			return true
		}
		if savedSnapshot == nil {
			fmt.Println("error: no snapshot saved (use .snapshot first)")
			return true
		}
		if err := s.RestoreSnapshot(savedSnapshot); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Println("data restored")
	case cmd == ".storage":
		ps, ok := db.(pagerStats)
		if !ok {
			fmt.Println("storage: memory")
			return true
		}
		st, durable := ps.PagerStats()
		if !durable {
			fmt.Println("storage: memory")
			return true
		}
		fmt.Println("storage: pager (durable page file + WAL)")
		fmt.Printf("  commits=%d wal-frames=%d checkpoints=%d recoveries=%d cache-hits=%d cache-misses=%d\n",
			st.Commits, st.WalFrames, st.Checkpoints, st.Recoveries, st.CacheHits, st.CacheMisses)
	case cmd == ".begin" || cmd == ".commit" || cmd == ".rollback":
		stmt := strings.ToUpper(strings.TrimPrefix(cmd, "."))
		if _, err := db.Exec(stmt); err != nil {
			fmt.Println("error:", err)
			return true
		}
		switch cmd {
		case ".begin":
			fmt.Println("transaction started")
		case ".commit":
			fmt.Println("committed")
		default:
			fmt.Println("rolled back")
		}
	case strings.HasPrefix(cmd, ".oracle"):
		runOracle(db, strings.TrimSpace(strings.TrimPrefix(cmd, ".oracle")))
	case strings.HasPrefix(cmd, ".timer"):
		switch arg := strings.TrimSpace(strings.TrimPrefix(cmd, ".timer")); arg {
		case "on":
			timerOn = true
		case "off":
			timerOn = false
		case "":
			timerOn = !timerOn
		default:
			fmt.Println("usage: .timer [on|off]")
			return true
		}
		fmt.Printf("timer %s\n", map[bool]string{true: "on", false: "off"}[timerOn])
	default:
		fmt.Println("meta commands: .tables, .schema <t>, .plan <select>, .oracle <name>, .begin, .commit, .rollback, .snapshot, .restore, .reset, .storage, .timer [on|off], .backend, .quit")
	}
	return true
}

// snapshotter is the optional backend capability behind .snapshot and
// .restore (memengine implements it over engine data snapshots).
type snapshotter interface {
	Snapshot() *engine.Snapshot
	RestoreSnapshot(*engine.Snapshot) error
}

// pagerStats is the optional backend capability behind .storage: durable
// sessions report the pager's work counters.
type pagerStats interface {
	PagerStats() (pager.Stats, bool)
}

// savedSnapshot is the shell's one snapshot slot.
var savedSnapshot *engine.Snapshot

// oracleChecks is how many checks one .oracle invocation runs: each check
// draws a fresh random predicate, so a single iteration would usually
// prove nothing either way.
const oracleChecks = 25

// runOracle runs one-shot oracle checks against the shell's current
// database and prints the first detection, if any.
func runOracle(db sut.DB, name string) {
	if name == "" {
		fmt.Println("usage: .oracle <name>; registered:", strings.Join(oracle.Names(), ", "))
		return
	}
	o, err := oracle.New(name, oracle.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	d := db.Session().Dialect
	env := &oracle.Env{Dialect: d, Rnd: gen.NewRand(d, time.Now().UnixNano())}
	for i := 0; i < oracleChecks; i++ {
		rep, err := o.Check(db, env)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if rep == nil {
			continue
		}
		fmt.Printf("%s DETECTION (%s verdict) after %d checks: %s\n", name, rep.Oracle, i+1, rep.Message)
		for _, sql := range rep.Trace {
			fmt.Printf("  %s;\n", sql)
		}
		if rep.Compare != "" {
			fmt.Printf("  -- compare against: %s;\n", rep.Compare)
		}
		return
	}
	fmt.Printf("%s: ok (%d checks passed)\n", name, oracleChecks)
}

// timerOn makes run print per-statement wall time (.timer toggle).
var timerOn bool

func run(db sut.DB, sql string) {
	// The shell cannot know whether a statement returns rows, so it always
	// uses the query path; on the wire backend DML then reports no
	// affected-row count (database/sql queries cannot carry one).
	start := time.Now()
	res, err := db.Query(sql)
	elapsed := time.Since(start)
	if timerOn {
		// Printed for errors too: bind-time rejection vs per-row failure
		// is exactly the cost difference -disable compile A/B runs look at.
		defer fmt.Printf("Run Time: %s\n", elapsed)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, "|"))
	}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Display()
		}
		fmt.Println(strings.Join(parts, "|"))
	}
	if res.RowsAffected > 0 {
		fmt.Printf("(%d rows affected)\n", res.RowsAffected)
	}
}

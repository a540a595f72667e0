// Package faultmatrix is the fault-corpus test matrix: one table of tester
// configurations crossed with the 56 registered faults, and the one check
// each kind of cell must pass. The corpus sweeps of internal/runner,
// internal/sut and internal/oracle are views of this table: each runs a
// slice of its cells under the subtest names it has always reported.
package faultmatrix

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/reduce"
	"repro/internal/runner"
	"repro/internal/sut"
)

// kind is what one cell of the matrix must show.
type kind uint8

const (
	skip kind = iota // the fault is not a cell of the row
	// routed: detect under the fault's registry oracle, then reduce, and
	// the reduced trace must replay on the faulty engine and stay silent
	// on the clean one.
	routed
	// detect: the registry verdict, attributed to the cell's oracle.
	detect
	// miss: the fault lives in code the row switches off, or the oracle is
	// structurally blind to it; any detection is a matrix bug.
	miss
	// mayDetect: detection is possible but not guaranteed (metamorphic
	// oracles catch some containment row drops); only attribution counts.
	mayDetect
)

// budgets are the per-kind database budgets. A miss cell burns its whole
// budget, so it runs small; the sweep checks afterwards that it still
// covers the routed row's detection offset of the same fault.
var budgets = [...]int{routed: 1500, detect: 1500, miss: 300, mayDetect: 150}

// matrixRow is one configuration crossed with the fault corpus.
type matrixRow struct {
	name string
	cfg  core.Config
	// oracle is the row's testing oracle; "" routes each fault to
	// oracle.ForFault.
	oracle string
	// quiet lists the faults living in exactly the code the row's
	// configuration switches off; they are miss cells.
	quiet []faults.Fault
	// expect classifies every other fault; nil means detect.
	expect func(info faults.Info, oracleName string) kind
}

// table crosses every configuration under test with the fault corpus.
// Each fault runs in its home dialect; the routed row runs the recovery
// and serializability faults, which live below the SQL surface, in every
// dialect so their oracles are checked end to end. The cross-oracle rows
// skip the fault's routed oracle: the routed row holds that cell.
var table = []matrixRow{
	{name: "routed", expect: func(faults.Info, string) kind { return routed }},
	// Session rows: the render→reparse round trip and each switched-off
	// engine feature must detect the whole corpus, except the faults
	// living in the feature's own code (the ablation doubles as their
	// bisection tool).
	{name: "wire", cfg: session(sut.Session{WireFidelity: true})},
	{name: "nocompile", cfg: session(sut.Session{NoCompile: true})},
	{name: "nohashjoin", cfg: session(sut.Session{NoHashJoin: true}),
		quiet: []faults.Fault{faults.HashJoinCollation, faults.HashJoinNullKey, faults.HashLeftJoinDrop}},
	{name: "nohashagg", cfg: session(sut.Session{NoHashAgg: true}),
		quiet: []faults.Fault{faults.HashAggCollation, faults.AggAccumulatorNullSkip, faults.TopKHeapBoundary}},
	{name: "pqs", oracle: "pqs", expect: crossOracle},
	{name: "tlp", oracle: "tlp", expect: crossOracle},
	{name: "norec", oracle: "norec", expect: crossOracle},
	// Ablation 1: with the engine's evaluator as the oracle, an
	// evaluator-level fault computes the same wrong answer on both sides.
	{name: "shared-evaluator", cfg: core.Config{UseEngineAsOracle: true},
		quiet: []faults.Fault{faults.UnsignedCompare},
		expect: func(info faults.Info, _ string) kind {
			if info.ID == faults.AffinityCompare || info.ID == faults.TextDoubleBool {
				return detect
			}
			return skip
		}},
}

// unsweptAblations are the sut.Ablations features without a session row,
// each with the reason. Every other ablation must have one.
var unsweptAblations = map[string]string{
	"planner": "full-scan coverage is TestAblationDifferential/TestAblationFaultReach in internal/engine",
}

func session(s sut.Session) core.Config { return core.Config{Session: s} }

// crossOracle encodes which faults an oracle other than the routed one
// must catch: error/crash faults fire in the database-generation phase
// every campaign shares, metamorphic faults are invisible to the other
// oracles, recovery and isolation faults are dormant without a pager
// session or concurrent transactions, and containment faults are PQS's
// home turf with the metamorphic oracles as opportunistic backstops.
func crossOracle(info faults.Info, oracleName string) kind {
	if oracle.ForFault(info) == oracleName {
		return skip
	}
	switch info.Oracle {
	case faults.OracleError, faults.OracleCrash:
		return detect
	case faults.OracleContainment:
		return mayDetect
	default:
		return miss
	}
}

// belowSQL reports whether a fault lives below the SQL surface, so its
// routed cell runs in every dialect.
func belowSQL(info faults.Info) bool {
	return info.Oracle == faults.OracleRecovery || info.Oracle == faults.OracleSerializability
}

func isMetamorphic(info faults.Info) bool {
	return info.Oracle == faults.OracleTLP || info.Oracle == faults.OracleNoREC
}

// cell is one campaign of the matrix.
type cell struct {
	row     *matrixRow
	dialect dialect.Dialect
	info    faults.Info
	oracle  string
	kind    kind
}

// key names a cell (row, dialect, fault); no two cells share one.
func key(row string, d dialect.Dialect, f faults.Fault) string {
	return row + "/" + d.String() + "/" + string(f)
}

func (c cell) key() string { return key(c.row.name, c.dialect, c.info.ID) }

// cells expands the table, in row order.
func cells() []cell {
	var out []cell
	for i := range table {
		r := &table[i]
		for _, info := range faults.All() {
			o := r.oracle
			if o == "" {
				o = oracle.ForFault(info)
			}
			k := detect
			switch {
			case slices.Contains(r.quiet, info.ID):
				k = miss
			case r.expect != nil:
				k = r.expect(info, o)
			}
			if k == skip {
				continue
			}
			ds := []dialect.Dialect{info.Dialect}
			if k == routed && belowSQL(info) {
				ds = dialect.All
			}
			for _, d := range ds {
				out = append(out, cell{row: r, dialect: d, info: info, oracle: o, kind: k})
			}
		}
	}
	return out
}

// A View is one corpus sweep's slice of the table: the cells it keeps,
// each run as a subtest named by name, under a group subtest if one is
// set.
type View struct {
	group string
	keep  func(cell) bool
	name  func(cell) string
}

func byFault(c cell) string        { return string(c.info.ID) }
func byDialectFault(c cell) string { return c.dialect.String() + "/" + string(c.info.ID) }
func byFaultOracle(c cell) string  { return string(c.info.ID) + "/" + c.oracle }

// inRow keeps every cell of one row.
func inRow(name string) func(cell) bool {
	return func(c cell) bool { return c.row.name == name }
}

// routedView keeps the routed cells whose fault passes keep.
func routedView(keep func(faults.Info) bool, by func(cell) string) View {
	return View{keep: func(c cell) bool { return c.row.name == "routed" && keep(c.info) }, name: by}
}

func quietIn(rowName string) func(faults.Info) bool {
	return func(info faults.Info) bool {
		i := slices.IndexFunc(table, func(r matrixRow) bool { return r.name == rowName })
		return slices.Contains(table[i].quiet, info.ID)
	}
}

// The views, one per corpus sweep. A routed cell belongs to several: each
// package that presents it runs its campaign once.
var (
	// FullCorpus: every fault detected, reduced and replayed under its
	// registry oracle in its home dialect.
	FullCorpus = View{keep: func(c cell) bool { return c.row.name == "routed" && c.dialect == c.info.Dialect }, name: byFault}
	// Recovery and Serializability: the faults below the SQL surface, in
	// every dialect.
	Recovery        = routedView(func(i faults.Info) bool { return i.Oracle == faults.OracleRecovery }, byDialectFault)
	Serializability = routedView(func(i faults.Info) bool { return i.Oracle == faults.OracleSerializability }, byDialectFault)
	// CrossOracle: every fault under each of pqs, tlp and norec, its
	// routed cell included when its routed oracle is one of them.
	CrossOracle = View{name: byFaultOracle, keep: func(c cell) bool {
		return slices.Contains([]string{"pqs", "tlp", "norec"}, c.oracle) &&
			(c.row.name == "routed" || c.row.name == c.oracle)
	}}
	Wire     = View{keep: inRow("wire"), name: byFault}
	Compiled = View{group: "compiled", keep: FullCorpus.keep, name: byFault}
	// Interpreted is the nocompile row, beside Compiled.
	Interpreted = View{group: "interpreted", keep: inRow("nocompile"), name: byFault}
	NoHashJoin  = View{keep: inRow("nohashjoin"), name: byFault}
	NoHashAgg   = View{keep: inRow("nohashagg"), name: byFault}
	// HashJoinReduction and HashAggReduction: the routed cells of the
	// faults a hash row keeps quiet.
	HashJoinReduction = routedView(quietIn("nohashjoin"), byFault)
	HashAggReduction  = routedView(quietIn("nohashagg"), byFault)
	SharedEvaluator   = View{group: "shared-evaluator", keep: inRow("shared-evaluator"), name: byDialectFault}

	views = []View{FullCorpus, Recovery, Serializability, CrossOracle, Wire, Compiled, Interpreted,
		NoHashJoin, NoHashAgg, HashJoinReduction, HashAggReduction, SharedEvaluator}
)

// entry is one cell's campaign, run at most once per test binary.
type entry struct {
	once sync.Once
	res  runner.Result
	done bool
}

var (
	mu      sync.Mutex
	entries = map[string]*entry{}
)

// result runs the cell's campaign (Workers 2, BaseSeed 1), or waits for
// the run another view of the same cell started.
func result(c cell) runner.Result {
	mu.Lock()
	e := entries[c.key()]
	if e == nil {
		e = new(entry)
		entries[c.key()] = e
	}
	mu.Unlock()
	e.once.Do(func() {
		res := runner.Run(runner.Campaign{
			Dialect:      c.dialect,
			Fault:        c.info.ID,
			MaxDatabases: budgets[c.kind],
			Workers:      2,
			BaseSeed:     1,
			Oracles:      []string{c.oracle},
			Tester:       c.row.cfg,
			Reduce:       c.kind == routed,
		})
		mu.Lock()
		e.res, e.done = res, true
		mu.Unlock()
	})
	return e.res
}

// finished returns the result of a cell whose campaign has run.
func finished(k string) (runner.Result, bool) {
	mu.Lock()
	defer mu.Unlock()
	if e := entries[k]; e != nil && e.done {
		return e.res, true
	}
	return runner.Result{}, false
}

// Run runs the cells of the views as parallel subtests, each with the
// check of its kind, then the checks that need more than one row.
func Run(t *testing.T, vs ...View) {
	if testing.Short() {
		t.Skip("fault matrix sweep is not short")
	}
	all := cells()
	var ran []cell
	for _, v := range vs {
		sweep := func(t *testing.T) {
			for _, c := range all {
				if !v.keep(c) {
					continue
				}
				ran = append(ran, c)
				t.Run(v.name(c), func(t *testing.T) {
					t.Parallel()
					checkCell(t, c, result(c))
				})
			}
		}
		if v.group == "" {
			sweep(t)
		} else {
			t.Run(v.group, sweep)
		}
	}
	t.Cleanup(func() { checkAcrossRows(t, all, ran) })
}

// checkCell applies the check of the cell's kind; every campaign must
// also finish all its database lifecycles without an error.
func checkCell(t *testing.T, c cell, res runner.Result) {
	t.Helper()
	if res.Errors != 0 {
		t.Fatalf("%d of %d databases failed; first error: %v", res.Errors, res.Databases, res.Err)
	}
	switch c.kind {
	case miss:
		if res.Detected {
			t.Fatalf("%s must miss %s but detected it via %s: %s\n  %s", c.oracle, c.info.ID,
				res.Bug.DetectedBy, res.Bug.Message, strings.Join(res.Bug.Trace, ";\n  "))
		}
		return
	case mayDetect:
		if res.Detected && res.Bug.DetectedBy != c.oracle {
			t.Errorf("detection attributed to %q, want %q", res.Bug.DetectedBy, c.oracle)
		}
		return
	}
	if !res.Detected {
		t.Fatalf("%s missed %s in %d databases (%d statements)",
			c.oracle, c.info.ID, res.Databases, res.Stats.Statements)
	}
	if res.Bug.Oracle != c.info.Oracle || res.Bug.DetectedBy != c.oracle {
		t.Fatalf("caught by %s with a %s verdict, want %s with %s (msg: %s)",
			res.Bug.DetectedBy, res.Bug.Oracle, c.oracle, c.info.Oracle, res.Bug.Message)
	}
	if c.kind != routed {
		return
	}
	if res.Bug.Oracle == faults.OracleRecovery && res.Bug.CrashPlan == "" {
		t.Error("recovery detection has no crash plan: the reducer cannot replay it")
	}
	if len(res.Reduced) == 0 || len(res.Reduced) > len(res.Bug.Trace) {
		t.Fatalf("reduction produced %d statements from %d", len(res.Reduced), len(res.Bug.Trace))
	}
	if !reduce.CheckerFor(res.Bug, c.dialect, faults.NewSet(c.info.ID))(res.Reduced) {
		t.Fatalf("reduced trace no longer reproduces:\n  %s", strings.Join(res.Reduced, ";\n  "))
	}
	if reduce.CheckerFor(res.Bug, c.dialect, nil)(res.Reduced) {
		t.Fatalf("reduced trace reproduces on the fault-free engine:\n  %s", strings.Join(res.Reduced, ";\n  "))
	}
	t.Logf("seed %d, %d databases, trace %d → %d stmts", res.Seed, res.Databases, len(res.Bug.Trace), len(res.Reduced))
}

// CheckTable fails the test when the table itself is wrong: a repeated
// cell, a cell no view runs, a quiet fault the registry does not know, an
// ablation without a session row, or a registry that is not the 56-fault
// corpus.
func CheckTable(t *testing.T) {
	all := cells()
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.key()] {
			t.Fatalf("cell %s appears twice", c.key())
		}
		seen[c.key()] = true
		if !slices.ContainsFunc(views, func(v View) bool { return v.keep(c) }) {
			t.Fatalf("cell %s is in no view, so no sweep runs it", c.key())
		}
	}
	swept := map[string]bool{}
	for _, r := range table {
		for _, name := range r.cfg.Disabled() {
			swept[name] = true
		}
		for _, f := range r.quiet {
			if _, ok := faults.Lookup(f); !ok {
				t.Fatalf("row %s keeps unregistered fault %s quiet", r.name, f)
			}
		}
	}
	for _, name := range sut.Ablations() {
		if _, exempt := unsweptAblations[name]; !swept[name] && !exempt {
			t.Fatalf("ablation %q has no session row in the fault matrix", name)
		}
	}
	if n := len(faults.All()); n != 56 {
		t.Errorf("fault registry has %d faults, matrix expects 56", n)
	}
	t.Logf("%d cells", len(all))
}

// checkAcrossRows runs the checks no single cell can make, over the cells
// that have run in this test binary, for each pair with a cell in ran.
func checkAcrossRows(t *testing.T, all, ran []cell) {
	mine := map[string]bool{}
	for _, c := range ran {
		mine[c.key()] = true
	}
	// Every miss must cover the routed detection offset of its fault.
	for _, c := range all {
		routedKey := key("routed", c.dialect, c.info.ID)
		if c.kind != miss || !mine[c.key()] && !mine[routedKey] {
			continue
		}
		_, missRan := finished(c.key())
		home, routedRan := finished(routedKey)
		if !missRan || !routedRan || !home.Detected {
			continue // a failed routed cell reports itself
		}
		if off := home.Seed - home.Campaign.BaseSeed; int64(budgets[miss]) < off {
			t.Errorf("%s: budget %d is below the routed detection offset %d, so the miss proves nothing",
				c.key(), budgets[miss], off)
		}
	}
	// At least 3 metamorphic faults are caught by their oracle and missed
	// by pqs: the structural blindness the metamorphic oracles remove.
	blind, complete, touched := 0, true, false
	for _, c := range all {
		if c.row.name != "pqs" || !isMetamorphic(c.info) {
			continue
		}
		routedKey := key("routed", c.dialect, c.info.ID)
		touched = touched || mine[c.key()] || mine[routedKey]
		miss, ranMiss := finished(c.key())
		home, ranHome := finished(routedKey)
		if !ranMiss || !ranHome {
			complete = false
			continue
		}
		if home.Detected && !miss.Detected {
			blind++
		}
	}
	if complete && touched && blind < 3 {
		t.Errorf("only %d metamorphic faults proven caught by their oracle and missed by pqs, want >= 3", blind)
	}
}

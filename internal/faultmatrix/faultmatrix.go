// Package faultmatrix is the fault-corpus test matrix: one table of tester
// configurations crossed with the 56 registered faults and with no fault
// at all, and the one check each kind of cell must pass. TestFaultMatrix
// runs the cells, each subtest named row/dialect/fault. The corpus sweeps
// that predate it in internal/runner, internal/sut and internal/oracle keep
// presenting their cells under the subtest names they have always
// reported (see legacy); TestFaultMatrix runs every other cell.
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
	// clean: no fault injected; any detection is a false positive.
	clean
)

// budgets are the per-kind database budgets. A miss cell's is a floor:
// it runs until past its fault's routed detection offset (see budget).
var budgets = [...]int{routed: 1500, detect: 1500, miss: 300, mayDetect: 150, clean: 150}

// allOracles are the oracles a campaign can rotate through.
var allOracles = []string{"pqs", "tlp", "norec", "recovery", "serializability"}

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
	// verdict overrides the registry verdict of a fault the row's
	// configuration shows through another symptom.
	verdict map[faults.Fault]faults.Oracle
	// clean lists the oracles of the row's fault-free cells.
	clean []string
}

// table crosses every configuration under test with the fault corpus.
// Each fault runs in its home dialect; the routed row runs the recovery
// and serializability faults, which live below the SQL surface, in every
// dialect so their oracles are checked end to end. The cross-oracle rows
// skip the fault's routed oracle: the routed row holds that cell. Every
// row whose configuration differs from routed's also runs fault-free
// cells, in every dialect, under each oracle whose statements reach the
// code its configuration changes.
var table = []matrixRow{
	// The load-bearing validation behind every table and figure: each
	// fault is detected under its registry oracle (PQS for containment,
	// error and crash faults; TLP and NoREC for the metamorphic ones PQS
	// is blind to) with the registry verdict, and reduces to a trace that
	// replays on the faulty engine and stays silent on the clean one.
	// Durability and isolation faults live in the pager and transaction
	// layer, so running them in all three dialects checks the recovery and
	// serializability oracles end to end. Fault-free: after-sync crashes
	// recover the committed state, mid-commit crashes one of the two legal
	// states, and first-committer-wins makes the commit order a
	// serializability witness, so any detection is an oracle bug.
	{name: "routed", expect: func(faults.Info, string) kind { return routed }, clean: allOracles},
	// Session rows detect the whole corpus through sut.DB on databases
	// opened with one switch, except the faults living in the switched-off
	// code, which stay quiet (the ablation doubles as their bisection
	// tool), and stay silent without a fault under every oracle.
	// wire: the render→reparse string round trip, TLP's UNION ALL
	// compounds included.
	{name: "wire", cfg: session(sut.Session{WireFidelity: true}), clean: allOracles},
	// nocompile: compiled programs and the tree walk detect identically;
	// compilation changes how predicates evaluate, never what they
	// evaluate to.
	{name: "nocompile", cfg: session(sut.Session{NoCompile: true}), clean: allOracles},
	// nohashjoin: join strategy changes how joins execute, never what they
	// return; the three quiet faults live in the hash and index-lookup
	// join code. Recovery and serializability run single-table statements
	// only, so their fault-free cells would repeat the routed row's.
	{name: "nohashjoin", cfg: session(sut.Session{NoHashJoin: true}), clean: []string{"pqs", "tlp", "norec"},
		quiet: []faults.Fault{faults.HashJoinCollation, faults.HashJoinNullKey, faults.HashLeftJoinDrop}},
	// nohashagg: aggregation strategy changes how groups accumulate, never
	// what they contain; the three quiet faults live in the hash
	// aggregation and top-K code. Recovery runs no query, so its
	// fault-free cells would repeat the routed row's.
	{name: "nohashagg", cfg: session(sut.Session{NoHashAgg: true}), clean: []string{"pqs", "tlp", "norec", "serializability"},
		quiet: []faults.Fault{faults.HashAggCollation, faults.AggAccumulatorNullSkip, faults.TopKHeapBoundary}},
	// noplanner: every source is a full scan; the quiet faults live in
	// index scans and the planner's collation and skip-scan choices. The
	// stale index entry an UPDATE leaves is no longer read by any query,
	// so it shows only when it fails a later UNIQUE check.
	{name: "noplanner", cfg: session(sut.Session{NoPlanner: true}), clean: allOracles,
		quiet: []faults.Fault{faults.CollateIndexOrder, faults.NocaseUniqueIndex, faults.PartialIndexNotNull,
			faults.PlannerCollationConfusion, faults.RangeScanBoundary, faults.RtrimCompare,
			faults.SkipScanDistinct, faults.BoolIndexScan},
		verdict: map[faults.Fault]faults.Oracle{faults.StaleIndexAfterUpdate: faults.OracleError}},
	// Cross-oracle rows: every fault under PQS, TLP and NoREC. Error and
	// crash faults fire while the database is built, so every oracle
	// catches them; metamorphic faults only their own oracle (the
	// load-bearing cells: PQS's structural blindness); durability and
	// isolation faults stay dormant without a pager or concurrent
	// sessions; containment faults are PQS's, with TLP and NoREC as
	// opportunistic backstops.
	{name: "pqs", oracle: "pqs", expect: crossOracle},
	{name: "tlp", oracle: "tlp", expect: crossOracle},
	{name: "norec", oracle: "norec", expect: crossOracle},
	// Ablation 1: with the engine's evaluator as the oracle, an
	// evaluator-level fault computes the same wrong answer on both sides.
	// The switch changes only PQS's pivot evaluation, so PQS is its one
	// fault-free oracle.
	{name: "shared-evaluator", cfg: core.Config{UseEngineAsOracle: true}, clean: []string{"pqs"},
		quiet: []faults.Fault{faults.UnsignedCompare},
		expect: func(info faults.Info, _ string) kind {
			if info.ID == faults.AffinityCompare || info.ID == faults.TextDoubleBool {
				return detect
			}
			return skip
		}},
}

func session(s sut.Session) core.Config { return core.Config{Session: s} }

// crossOracle encodes which faults an oracle other than the routed one
// must catch (see the cross-oracle rows).
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

// cell is one campaign of the matrix. A clean cell has no fault: its info
// is the zero value.
type cell struct {
	row     *matrixRow
	dialect dialect.Dialect
	info    faults.Info
	oracle  string
	kind    kind
}

// fault names the cell's fault, or "fault-free.<oracle>" for a clean cell.
func (c cell) fault() string {
	if c.kind == clean {
		return "fault-free." + c.oracle
	}
	return string(c.info.ID)
}

// key names a cell row/dialect/fault; no two cells share one.
func (c cell) key() string { return c.row.name + "/" + c.dialect.String() + "/" + c.fault() }

// home is the routed cell of the cell's fault in the cell's dialect. Every
// fault has one in its home dialect, the only dialect other rows use.
func (c cell) home() cell {
	return cell{row: &table[0], dialect: c.dialect, info: c.info, oracle: oracle.ForFault(c.info), kind: routed}
}

// cells expands the table in row order, each row's fault cells before its
// fault-free ones.
var cells = sync.OnceValue(func() []cell {
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
		for _, o := range r.clean {
			for _, d := range dialect.All {
				out = append(out, cell{row: r, dialect: d, oracle: o, kind: clean})
			}
		}
	}
	return out
})

// entry is one cell's campaign, run at most once per test binary.
type entry struct {
	once sync.Once
	res  runner.Result
	runs int // campaigns started, for sweep's one-campaign check
}

var entries sync.Map // cell key → *entry

func entryOf(c cell) *entry {
	e, _ := entries.LoadOrStore(c.key(), new(entry))
	return e.(*entry)
}

// result runs the cell's campaign (Workers 2, BaseSeed 1), or waits for
// the run another subtest of the same cell started.
func result(c cell) runner.Result {
	e := entryOf(c)
	e.once.Do(func() {
		e.runs++
		e.res = runner.Run(runner.Campaign{
			Dialect:      c.dialect,
			Fault:        c.info.ID,
			MaxDatabases: budget(c),
			Workers:      2,
			BaseSeed:     1,
			Oracles:      []string{c.oracle},
			Tester:       c.row.cfg,
			Reduce:       c.kind == routed,
		})
	})
	return e.res
}

// budget is the cell's database budget. A miss cell runs past the
// database its fault's routed cell detects on (running that cell first if
// this binary has not), so the miss shows the row, not a short budget,
// keeps the fault quiet.
func budget(c cell) int {
	n := budgets[c.kind]
	if c.kind != miss {
		return n
	}
	if res := result(c.home()); res.Detected {
		n = max(n, int(res.Seed-res.Campaign.BaseSeed)+1)
	}
	return n
}

// checkCell applies the check of the cell's kind; every campaign must
// also finish all its database lifecycles without an error.
func checkCell(t *testing.T, c cell, res runner.Result) {
	t.Helper()
	if res.Errors != 0 {
		t.Fatalf("%d of %d databases failed; first error: %v", res.Errors, res.Databases, res.Err)
	}
	switch c.kind {
	case clean, miss:
		if res.Detected {
			t.Fatalf("%s must stay silent on %s but detected (seed %d): %s\n  %s", c.oracle, c.fault(),
				res.Seed, res.Bug.Message, strings.Join(res.Bug.Trace, ";\n  "))
		}
		t.Logf("silent for %d databases", res.Databases)
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
	verdict, ok := c.row.verdict[c.info.ID]
	if !ok {
		verdict = c.info.Oracle
	}
	if res.Bug.Oracle != verdict || res.Bug.DetectedBy != c.oracle {
		t.Fatalf("caught by %s with a %s verdict, want %s with %s (msg: %s)",
			res.Bug.DetectedBy, res.Bug.Oracle, c.oracle, verdict, res.Bug.Message)
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

// A view presents some of the table's cells as subtests named by name,
// under a group subtest if one is set.
type view struct {
	group string
	keep  func(cell) bool
	name  func(cell) string
}

func byFault(c cell) string        { return c.fault() }
func byDialectFault(c cell) string { return c.dialect.String() + "/" + c.fault() }
func byFaultOracle(c cell) string  { return c.fault() + "/" + c.oracle }

// faultsIn keeps the fault cells of one row.
func faultsIn(row string) func(cell) bool {
	return func(c cell) bool { return c.row.name == row && c.kind != clean }
}

// routedWhere keeps the routed cells whose fault passes keep, in every
// dialect; routedHome only those in the fault's home dialect.
func routedWhere(keep func(faults.Info) bool) func(cell) bool {
	return func(c cell) bool { return c.kind == routed && keep(c.info) }
}

func routedHome(keep func(faults.Info) bool) func(cell) bool {
	return func(c cell) bool { return c.kind == routed && c.dialect == c.info.Dialect && keep(c.info) }
}

func anyFault(faults.Info) bool { return true }

func oracleIs(o faults.Oracle) func(faults.Info) bool {
	return func(info faults.Info) bool { return info.Oracle == o }
}

// quietIn reports whether the named row keeps the fault quiet.
func quietIn(row string) func(faults.Info) bool {
	return func(info faults.Info) bool {
		return slices.ContainsFunc(table, func(r matrixRow) bool { return r.name == row && slices.Contains(r.quiet, info.ID) })
	}
}

// cleanUnder keeps the fault-free cells of one oracle in the given rows.
func cleanUnder(o string, rows ...string) func(cell) bool {
	return func(c cell) bool { return c.kind == clean && c.oracle == o && slices.Contains(rows, c.row.name) }
}

// legacy maps each corpus sweep that predates TestFaultMatrix, by test
// name, onto its slice of the table and the subtest names it has always
// reported. A cell a legacy sweep presents runs there, in that test's
// binary; TestFaultMatrix runs the rest. A routed cell belongs to several
// sweeps, so it runs once in each binary that presents it.
var legacy = map[string][]view{
	// internal/runner (its TestFaultMatrix predates this package's).
	"TestFaultMatrix":          {{group: "shared-evaluator", keep: faultsIn("shared-evaluator"), name: byDialectFault}},
	"TestFullCorpusDetectable": {{keep: routedHome(anyFault), name: byFault}},
	// internal/oracle
	"TestCrossOracleFaultMatrix": {{name: byFaultOracle, keep: func(c cell) bool {
		return c.kind != clean && slices.Contains([]string{"pqs", "tlp", "norec"}, c.oracle) &&
			(c.row.name == "routed" || c.row.name == c.oracle)
	}}},
	"TestRecoveryFaultMatrix":        {{keep: routedWhere(oracleIs(faults.OracleRecovery)), name: byDialectFault}},
	"TestSerializabilityFaultMatrix": {{keep: routedWhere(oracleIs(faults.OracleSerializability)), name: byDialectFault}},
	"TestRecoveryNoFalsePositives":   {{keep: cleanUnder("recovery", "routed"), name: func(c cell) string { return c.dialect.String() }}},
	"TestSerializabilityNoFalsePositives": {{keep: cleanUnder("serializability", "routed", "nocompile"), name: func(c cell) string {
		if c.row.name == "nocompile" {
			return c.dialect.String() + "/no-compile"
		}
		return c.dialect.String()
	}}},
	// internal/sut
	"TestFaultMatrixWireFidelity": {{keep: faultsIn("wire"), name: byFault}},
	"TestFaultMatrixCompiledParity": {
		{group: "compiled", keep: routedHome(anyFault), name: byFault},
		{group: "interpreted", keep: faultsIn("nocompile"), name: byFault},
	},
	"TestFaultMatrixHashJoinParity": {{keep: faultsIn("nohashjoin"), name: byFault}},
	"TestFaultMatrixHashAggParity":  {{keep: faultsIn("nohashagg"), name: byFault}},
	"TestHashJoinFaultReduction":    {{keep: routedHome(quietIn("nohashjoin")), name: byFault}},
	"TestHashAggFaultReduction":     {{keep: routedHome(quietIn("nohashagg")), name: byFault}},
}

// Run runs the cells the calling legacy sweep presents (legacy, keyed by
// t.Name()) under their historical subtest names.
func Run(t *testing.T) {
	vs, ok := legacy[t.Name()]
	if !ok {
		t.Fatalf("%s is not a fault-matrix sweep", t.Name())
	}
	sweep(t, vs)
}

// sweep runs the views' cells as parallel subtests, each with the check
// of its kind, after checking that the cell took exactly one campaign in
// this binary. The sweep itself runs in parallel with its package's other
// parallel tests, so no CPU idles while one sweep's last campaign runs.
func sweep(t *testing.T, vs []view) {
	if testing.Short() {
		t.Skip("fault matrix sweep is not short")
	}
	t.Parallel()
	for _, v := range vs {
		each := func(t *testing.T) {
			for _, c := range cells() {
				if !v.keep(c) {
					continue
				}
				t.Run(v.name(c), func(t *testing.T) {
					t.Parallel()
					res := result(c)
					if n := entryOf(c).runs; n != 1 {
						t.Errorf("cell %s ran %d campaigns, want 1", c.key(), n)
					}
					checkCell(t, c, res)
				})
			}
		}
		if v.group == "" {
			each(t)
		} else {
			t.Run(v.group, each)
		}
	}
}

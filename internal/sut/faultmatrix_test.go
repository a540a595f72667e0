package sut_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/reduce"
	"repro/internal/runner"
	"repro/internal/sut"
)

// faultMatrix is the campaign-level fault sweep, one row per session: every
// one of the 56 registered faults runs through sut.DB on databases opened
// with the row's session, each under the testing oracle its registry entry
// routes to. A fault the row lists as quiet lives in exactly the code the
// session switches off, so it must stay undetected for 300 databases (the
// ablation doubles as its bisection tool); every other fault must be
// detected within 1500.
//
// Together with runner's TestFullCorpusDetectable, which sweeps the same
// matrix through the default ExecAST fast path, the rows prove:
//   - WireFidelity: the render→reparse string round trip detects the whole
//     corpus, TLP's UNION ALL compounds included;
//   - CompiledParity: compiled expression programs and the tree walk detect
//     identically — compilation changes how predicates evaluate, never what
//     they evaluate to;
//   - HashJoinParity: join strategy changes how joins execute, never what
//     they return, and the three hash-join faults live in the hash and
//     index-lookup join code;
//   - HashAggParity: aggregation strategy changes how groups accumulate,
//     never what they contain, and the three hash-agg faults live in the
//     hash aggregation and top-K code.
//
// A row named X/sub runs as subtest sub of TestFaultMatrixX.
var faultMatrix = []struct {
	name  string
	sess  sut.Session
	quiet []faults.Fault
}{
	{"WireFidelity", sut.Session{WireFidelity: true}, nil},
	{"CompiledParity/compiled", sut.Session{}, nil},
	{"CompiledParity/interpreted", sut.Session{NoCompile: true}, nil},
	{"HashJoinParity", sut.Session{NoHashJoin: true},
		[]faults.Fault{faults.HashJoinCollation, faults.HashJoinNullKey, faults.HashLeftJoinDrop}},
	{"HashAggParity", sut.Session{NoHashAgg: true},
		[]faults.Fault{faults.HashAggCollation, faults.AggAccumulatorNullSkip, faults.TopKHeapBoundary}},
}

func TestFaultMatrixWireFidelity(t *testing.T)   { runFaultMatrix(t, "WireFidelity") }
func TestFaultMatrixCompiledParity(t *testing.T) { runFaultMatrix(t, "CompiledParity") }
func TestFaultMatrixHashJoinParity(t *testing.T) { runFaultMatrix(t, "HashJoinParity") }
func TestFaultMatrixHashAggParity(t *testing.T)  { runFaultMatrix(t, "HashAggParity") }

// runFaultMatrix sweeps the faultMatrix rows of one test.
func runFaultMatrix(t *testing.T, test string) {
	if testing.Short() {
		t.Skip("fault matrix sweep is not short")
	}
	for _, row := range faultMatrix {
		name, sub, _ := strings.Cut(row.name, "/")
		if name != test {
			continue
		}
		sweep := func(t *testing.T) {
			total := 0
			for _, d := range dialect.All {
				for _, info := range faults.ForDialect(d) {
					total++
					quiet := slices.Contains(row.quiet, info.ID)
					t.Run(string(info.ID), func(t *testing.T) {
						t.Parallel()
						budget := 1500
						if quiet {
							budget = 300
						}
						res := runner.Run(runner.Campaign{
							Dialect:      d,
							Fault:        info.ID,
							MaxDatabases: budget,
							Workers:      2,
							BaseSeed:     1,
							Oracles:      []string{oracle.ForFault(info)},
							Tester:       core.Config{Session: row.sess},
						})
						if quiet {
							if res.Detected {
								t.Fatalf("fault %s detected in %s, whose session switches its code off:\n  %s",
									info.ID, row.name, strings.Join(res.Bug.Trace, ";\n  "))
							}
							return
						}
						if !res.Detected {
							t.Fatalf("fault %s not detected in %s within %d databases",
								info.ID, row.name, res.Databases)
						}
					})
				}
			}
			if total != 56 {
				t.Errorf("fault registry has %d faults, matrix expects 56", total)
			}
		}
		if sub == "" {
			sweep(t)
		} else {
			t.Run(sub, sweep)
		}
	}
}

// TestCompiledSoundness is the false-positive guard for the compiled
// path: with no faults injected, the engine (running compiled programs)
// and the independent interpreter oracle must agree on every pivot check,
// so campaigns detect nothing.
func TestCompiledSoundness(t *testing.T) {
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			tester := core.NewTester(core.Config{Session: sut.Session{Dialect: d}, Seed: 77, QueriesPerDB: 20})
			for i := 0; i < 60; i++ {
				bug, err := tester.RunDatabase()
				if err != nil {
					t.Fatal(err)
				}
				if bug != nil {
					t.Fatalf("sound engine flagged: %s\ntrace:\n  %s",
						bug.Message, strings.Join(bug.Trace, ";\n  "))
				}
			}
		})
	}
}

// TestCampaignThroughWireBackend proves an end-to-end detection with the
// campaign stack driving the actual database/sql wire backend — the
// farthest execution surface from the engine.
func TestCampaignThroughWireBackend(t *testing.T) {
	res := runner.Run(runner.Campaign{
		Dialect:      dialect.SQLite,
		Fault:        faults.PartialIndexNotNull,
		MaxDatabases: 400,
		Workers:      2,
		BaseSeed:     1,
		Tester:       core.Config{Backend: "wire"},
	})
	if !res.Detected {
		t.Fatalf("wire backend campaign missed %s in %d databases",
			faults.PartialIndexNotNull, res.Databases)
	}
	if res.Bug.Oracle != faults.OracleContainment {
		t.Errorf("oracle = %s, want containment", res.Bug.Oracle)
	}
}

// TestHashAggFaultReduction proves the three hash-agg faults reduce to
// replayable repro scripts, like the rest of the corpus: the reducer's
// checker must reproduce on a faulty engine and stay quiet on a clean one.
func TestHashAggFaultReduction(t *testing.T) {
	for _, tc := range []struct {
		fault   faults.Fault
		dialect dialect.Dialect
		oracle  string
	}{
		{faults.HashAggCollation, dialect.SQLite, "pqs"},
		{faults.AggAccumulatorNullSkip, dialect.SQLite, "tlp"},
		{faults.TopKHeapBoundary, dialect.MySQL, "pqs"},
	} {
		tc := tc
		t.Run(string(tc.fault), func(t *testing.T) {
			t.Parallel()
			res := runner.Run(runner.Campaign{
				Dialect:      tc.dialect,
				Fault:        tc.fault,
				MaxDatabases: 1500,
				BaseSeed:     1,
				Reduce:       true,
				Oracles:      []string{tc.oracle},
			})
			if !res.Detected {
				t.Fatalf("%s not detected", tc.fault)
			}
			if len(res.Reduced) == 0 || len(res.Reduced) > len(res.Bug.Trace) {
				t.Fatalf("reduction produced %d statements from %d", len(res.Reduced), len(res.Bug.Trace))
			}
			check := reduce.CheckerFor(res.Bug, tc.dialect, faults.NewSet(tc.fault))
			if !check(res.Reduced) {
				t.Fatalf("reduced trace no longer reproduces:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
			clean := reduce.CheckerFor(res.Bug, tc.dialect, nil)
			if clean(res.Reduced) {
				t.Fatalf("checker reproduces on the fault-free engine:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
		})
	}
}

// TestHashJoinFaultReduction proves the three hash-join faults reduce to
// replayable repro scripts, like the rest of the corpus: the reducer's
// checker must reproduce on a faulty engine and stay quiet on a clean one.
func TestHashJoinFaultReduction(t *testing.T) {
	for _, tc := range []struct {
		fault   faults.Fault
		dialect dialect.Dialect
		oracle  string
	}{
		{faults.HashJoinCollation, dialect.SQLite, "pqs"},
		{faults.HashJoinNullKey, dialect.SQLite, "tlp"},
		{faults.HashLeftJoinDrop, dialect.Postgres, "tlp"},
	} {
		tc := tc
		t.Run(string(tc.fault), func(t *testing.T) {
			t.Parallel()
			res := runner.Run(runner.Campaign{
				Dialect:      tc.dialect,
				Fault:        tc.fault,
				MaxDatabases: 1500,
				BaseSeed:     1,
				Reduce:       true,
				Oracles:      []string{tc.oracle},
			})
			if !res.Detected {
				t.Fatalf("%s not detected", tc.fault)
			}
			if len(res.Reduced) == 0 || len(res.Reduced) > len(res.Bug.Trace) {
				t.Fatalf("reduction produced %d statements from %d", len(res.Reduced), len(res.Bug.Trace))
			}
			check := reduce.CheckerFor(res.Bug, tc.dialect, faults.NewSet(tc.fault))
			if !check(res.Reduced) {
				t.Fatalf("reduced trace no longer reproduces:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
			clean := reduce.CheckerFor(res.Bug, tc.dialect, nil)
			if clean(res.Reduced) {
				t.Fatalf("checker reproduces on the fault-free engine:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
		})
	}
}

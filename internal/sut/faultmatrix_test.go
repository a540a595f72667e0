package sut_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faultmatrix"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/sut"
)

// TestFaultMatrixWireFidelity, TestFaultMatrixCompiledParity,
// TestFaultMatrixHashJoinParity and TestFaultMatrixHashAggParity are the
// session rows of the fault matrix: each sweeps every one of the 56
// registered faults through sut.DB on databases opened with the row's
// session, each under the testing oracle its registry entry routes to. A
// fault the row keeps quiet lives in exactly the code the session switches
// off, so it must stay undetected for 300 databases (the ablation doubles
// as its bisection tool); every other fault must be detected within 1500.
// The rows prove:
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
func TestFaultMatrixWireFidelity(t *testing.T) { faultmatrix.Run(t, faultmatrix.Wire) }
func TestFaultMatrixCompiledParity(t *testing.T) {
	faultmatrix.Run(t, faultmatrix.Compiled, faultmatrix.Interpreted)
}
func TestFaultMatrixHashJoinParity(t *testing.T) { faultmatrix.Run(t, faultmatrix.NoHashJoin) }
func TestFaultMatrixHashAggParity(t *testing.T)  { faultmatrix.Run(t, faultmatrix.NoHashAgg) }

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

// TestHashAggFaultReduction and TestHashJoinFaultReduction prove the
// faults the hash rows keep quiet reduce to replayable repro scripts, like
// the rest of the corpus: the reducer's checker must reproduce on a faulty
// engine and stay quiet on a clean one.
func TestHashAggFaultReduction(t *testing.T) { faultmatrix.Run(t, faultmatrix.HashAggReduction) }

func TestHashJoinFaultReduction(t *testing.T) { faultmatrix.Run(t, faultmatrix.HashJoinReduction) }

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

// The session rows of the fault matrix (wire, nocompile beside the routed
// cells, nohashjoin, nohashagg) and the routed cells of the faults the
// hash rows keep quiet, under their original subtest names; the rows in
// internal/faultmatrix say what each cell proves.
func TestFaultMatrixWireFidelity(t *testing.T)   { faultmatrix.Run(t) }
func TestFaultMatrixCompiledParity(t *testing.T) { faultmatrix.Run(t) }
func TestFaultMatrixHashJoinParity(t *testing.T) { faultmatrix.Run(t) }
func TestFaultMatrixHashAggParity(t *testing.T)  { faultmatrix.Run(t) }
func TestHashJoinFaultReduction(t *testing.T)    { faultmatrix.Run(t) }
func TestHashAggFaultReduction(t *testing.T)     { faultmatrix.Run(t) }

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

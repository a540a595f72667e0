package oracle_test

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/faultmatrix"
	"repro/internal/faults"
	"repro/internal/runner"
)

// TestRecoveryFaultMatrix runs the fault matrix's routed durability
// cells in all three dialects and TestRecoveryNoFalsePositives its
// fault-free recovery cells; the routed row in internal/faultmatrix says
// what they prove.
func TestRecoveryFaultMatrix(t *testing.T)      { faultmatrix.Run(t) }
func TestRecoveryNoFalsePositives(t *testing.T) { faultmatrix.Run(t) }

// TestRecoveryDeterminism runs the same durability hunt with 1 and 8
// workers: detection, seed, message, trace, and crash plan must be
// byte-identical — crash schedules derive from the campaign seed, never
// from scheduling.
func TestRecoveryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery determinism check is not short")
	}
	campaign := func(workers int) runner.Result {
		return runner.Run(runner.Campaign{
			Dialect:      dialect.SQLite,
			Fault:        faults.PagerTornPageAccept,
			MaxDatabases: 300,
			Workers:      workers,
			BaseSeed:     7,
			Oracles:      []string{"recovery"},
		})
	}
	a, b := campaign(1), campaign(8)
	if a.Detected != b.Detected {
		t.Fatalf("Detected differs: %v vs %v", a.Detected, b.Detected)
	}
	if !a.Detected {
		t.Fatal("torn-page-accept not detected at all")
	}
	if a.Seed != b.Seed {
		t.Fatalf("detecting seed differs: %d vs %d", a.Seed, b.Seed)
	}
	if a.Bug.Message != b.Bug.Message {
		t.Fatalf("message differs:\n  1 worker: %s\n  8 workers: %s", a.Bug.Message, b.Bug.Message)
	}
	if a.Bug.CrashPlan != b.Bug.CrashPlan {
		t.Fatalf("crash plan differs: %s vs %s", a.Bug.CrashPlan, b.Bug.CrashPlan)
	}
	if len(a.Bug.Trace) != len(b.Bug.Trace) {
		t.Fatalf("trace length differs: %d vs %d", len(a.Bug.Trace), len(b.Bug.Trace))
	}
	for i := range a.Bug.Trace {
		if a.Bug.Trace[i] != b.Bug.Trace[i] {
			t.Fatalf("trace[%d] differs: %q vs %q", i, a.Bug.Trace[i], b.Bug.Trace[i])
		}
	}
}

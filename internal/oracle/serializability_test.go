package oracle_test

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/faultmatrix"
	"repro/internal/faults"
	"repro/internal/runner"
)

// TestSerializabilityFaultMatrix runs the fault matrix's routed isolation
// cells in all three dialects; the routed row in internal/faultmatrix says
// what they prove.
func TestSerializabilityFaultMatrix(t *testing.T) { faultmatrix.Run(t) }

// TestSerializabilityNoFalsePositives runs the fault matrix's fault-free
// serializability cells of the routed and nocompile rows: every fault-free
// interleaved history must match a serial order, with and without compiled
// expression programs.
func TestSerializabilityNoFalsePositives(t *testing.T) { faultmatrix.Run(t) }

// TestSerializabilityInheritanceSeeds replays postgres seeds whose
// histories read a parent table while another session wrote a table
// inheriting from it: the engine once left the children out of the
// reader's read set and committed a non-serializable history, so the sound
// engine must stay silent on each one-database campaign.
func TestSerializabilityInheritanceSeeds(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{761, 20652, 20927, 21362, 21670, 40596, 40912,
		41225, 41559, 60082, 60297, 61105, 81608, 81859} {
		res := runner.Run(runner.Campaign{
			Dialect:      dialect.Postgres,
			MaxDatabases: 1,
			Workers:      1,
			BaseSeed:     seed,
			Oracles:      []string{"serializability"},
		})
		if res.Detected {
			t.Errorf("false positive on the sound engine (seed %d): %s", res.Seed, res.Bug.Message)
		}
	}
}

// TestInterleavingDeterminism runs the same isolation hunt with 1 and 8
// workers: detection, seed, message, and the session-tagged history trace
// must be byte-identical — interleavings derive from the campaign seed,
// never from goroutine scheduling.
func TestInterleavingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("interleaving determinism check is not short")
	}
	campaign := func(workers int) runner.Result {
		return runner.Run(runner.Campaign{
			Dialect:      dialect.SQLite,
			Fault:        faults.TxnLostUpdate,
			MaxDatabases: 300,
			Workers:      workers,
			BaseSeed:     7,
			Oracles:      []string{"serializability"},
		})
	}
	a, b := campaign(1), campaign(8)
	if a.Detected != b.Detected {
		t.Fatalf("Detected differs: %v vs %v", a.Detected, b.Detected)
	}
	if !a.Detected {
		t.Fatal("lost-update not detected at all")
	}
	if a.Seed != b.Seed {
		t.Fatalf("detecting seed differs: %d vs %d", a.Seed, b.Seed)
	}
	if a.Bug.Message != b.Bug.Message {
		t.Fatalf("message differs:\n  1 worker: %s\n  8 workers: %s", a.Bug.Message, b.Bug.Message)
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

package runner_test

import (
	"testing"

	"repro/internal/faultmatrix"
)

// TestFaultMatrix checks the fault matrix's table itself (no repeated
// cell, no cell outside every sweep, a session row per ablation) and runs
// its shared-evaluator row: with the engine's evaluator as the oracle, an
// evaluator-level fault computes the same wrong answer on both sides.
func TestFaultMatrix(t *testing.T) {
	faultmatrix.CheckTable(t)
	faultmatrix.Run(t, faultmatrix.SharedEvaluator)
}

// TestFullCorpusDetectable is the load-bearing validation behind every
// table and figure: each of the injected faults must be detected by a
// campaign within budget, under the testing oracle its registry entry
// routes to (PQS for containment/error/crash faults, TLP/NoREC for the
// metamorphic faults PQS is structurally blind to), and by the verdict
// oracle the registry names; the detection must reduce to a trace that
// replays on the faulty engine and stays silent on the clean one.
func TestFullCorpusDetectable(t *testing.T) {
	faultmatrix.Run(t, faultmatrix.FullCorpus)
}

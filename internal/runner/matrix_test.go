package runner_test

import (
	"testing"

	"repro/internal/faultmatrix"
)

// TestFaultMatrix runs the fault matrix's shared-evaluator cells and
// TestFullCorpusDetectable its routed cells in their home dialects; the
// rows in internal/faultmatrix say what each cell proves.
func TestFaultMatrix(t *testing.T)          { faultmatrix.Run(t) }
func TestFullCorpusDetectable(t *testing.T) { faultmatrix.Run(t) }

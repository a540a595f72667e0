package sut_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/sut"
)

// TestFastPathThroughputRegression is the tripwire behind the documented
// claim that the ExecAST fast path beats wire-fidelity mode by ≥1.3×
// databases/sec (BenchmarkCampaign's CampaignThroughput/WireFidelity row
// against its OracleThroughput/pqs row is the precise measurement).
// The target was ≥1.5× before the PR 8 allocation-free tokenizer made
// render→reparse itself ~2× cheaper — wire fidelity got faster, so the
// fast path's *relative* lead legitimately narrowed (~1.4× measured).
// The asserted floor is deliberately conservative — 1.1×, best-of-3 over
// a few hundred identical lifecycles — so the test stays stable on loaded
// CI machines while still failing loudly if the fast path ever stops
// paying for itself.
func TestFastPathThroughputRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is not short")
	}
	const lifecycles = 400
	run := func(wireFidelity bool) time.Duration {
		tester := core.NewTester(core.Config{
			Session:      sut.Session{Dialect: dialect.SQLite, WireFidelity: wireFidelity},
			Seed:         1,
			QueriesPerDB: 20,
		})
		start := time.Now()
		for i := 0; i < lifecycles; i++ {
			if _, err := tester.RunDatabase(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Warm up once to stabilize allocator state, then take the best of
	// three interleaved measurements per mode (damps scheduler noise when
	// the whole package suite runs in parallel).
	run(false)
	run(true)
	var fast, wire time.Duration
	for i := 0; i < 3; i++ {
		if f := run(false); fast == 0 || f < fast {
			fast = f
		}
		if w := run(true); wire == 0 || w < wire {
			wire = w
		}
	}
	ratio := float64(wire) / float64(fast)
	t.Logf("fast=%s wire-fidelity=%s ratio=%.2fx", fast, wire, ratio)
	if ratio < 1.1 {
		t.Errorf("ExecAST fast path only %.2fx faster than wire fidelity (conservative floor 1.1x; benchmark target 1.3x)", ratio)
	}
}

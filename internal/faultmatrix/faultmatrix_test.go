package faultmatrix

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/sut"
)

// TestFaultMatrix checks the table, then runs every cell no legacy sweep
// presents, each as the subtest row/dialect/fault.
func TestFaultMatrix(t *testing.T) {
	checkTable(t)
	sweep(t, []view{{keep: func(c cell) bool { return !presented(c) }, name: cell.key}})
}

// presented reports whether a legacy sweep runs the cell.
func presented(c cell) bool {
	for _, vs := range legacy {
		if slices.ContainsFunc(vs, func(v view) bool { return v.keep(c) }) {
			return true
		}
	}
	return false
}

// checkTable fails the test when the table itself is wrong: a routed row
// that is not first, a repeated cell, a quiet fault the registry does not
// know, an ablation without a session row, a registry that is not the
// 56-fault corpus, or fewer than three metamorphic faults whose pqs cell
// must miss them.
func checkTable(t *testing.T) {
	if table[0].name != "routed" {
		t.Fatalf("row 0 is %s; cell.home expects the routed row first", table[0].name)
	}
	seen := map[string]bool{}
	for _, c := range cells() {
		if seen[c.key()] {
			t.Fatalf("cell %s appears twice", c.key())
		}
		seen[c.key()] = true
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
		if !swept[name] {
			t.Fatalf("ablation %q has no session row in the fault matrix", name)
		}
	}
	if n := len(faults.All()); n != 56 {
		t.Errorf("fault registry has %d faults, matrix expects 56", n)
	}
	// Every fault is a routed cell, so when every cell passes, each such
	// miss proves a fault the metamorphic oracles catch and PQS is
	// structurally blind to.
	blind := 0
	for _, c := range cells() {
		if c.row.name == "pqs" && c.kind == miss &&
			(c.info.Oracle == faults.OracleTLP || c.info.Oracle == faults.OracleNoREC) {
			blind++
		}
	}
	if blind < 3 {
		t.Errorf("only %d metamorphic faults are pqs miss cells, want >= 3", blind)
	}
	t.Logf("%d cells", len(cells()))
}

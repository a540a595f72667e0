package main

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/faults"
	"repro/internal/report"
)

// The paper-results invariants are structural: they hold at any budget, so
// one small corpus sweep checks the tables the full run prints.
func TestPaperTablesInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is not short")
	}
	results := sweep(200)

	t2 := table2(results)
	t3, err := table3(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != len(t2.Rows)+1 || t3.Rows[len(t2.Rows)][0] != "Sum" {
		t.Fatalf("table 3 rows %v: want table 2's dialects, then Sum", t3.Rows)
	}
	faultSum, detected := 0, 0
	columns := make([]int, len(table3Oracles))
	for i, row := range t2.Rows {
		faultSum += cell(t, row, 1)
		detected += cell(t, row, 2)
		rowSum := 0
		for c := range columns {
			n := cell(t, t3.Rows[i], c+1)
			rowSum += n
			columns[c] += n
		}
		if t3.Rows[i][0] != row[0] || rowSum != cell(t, row, 2) {
			t.Errorf("table 3 row %v sums to %d, table 2 row %v", t3.Rows[i], rowSum, row)
		}
	}
	if want := len(faults.All()); faultSum != want {
		t.Errorf("table 2 lists %d faults, registry has %d", faultSum, want)
	}
	for c, want := range columns {
		if got := cell(t, t3.Rows[len(t2.Rows)], c+1); got != want {
			t.Errorf("table 3 Sum[%s] = %d, column totals %d", table3Oracles[c], got, want)
		}
	}
	if got := len(reducedLengths(results)); got != detected {
		t.Errorf("figure 2 has %d samples for %d detections", got, detected)
	}
}

func TestPaperTablesCountLOC(t *testing.T) {
	t1, err := table1()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		table *report.Table
		cols  []int
	}{{t1, []int{4}}, {t4, []int{1, 2}}} {
		for _, row := range tc.table.Rows {
			for _, c := range tc.cols {
				if cell(t, row, c) <= 0 {
					t.Errorf("%s: %s %s = %s", tc.table.Title, row[0], tc.table.Headers[c], row[c])
				}
			}
		}
	}
}

// Outside the repository there is no source tree to count: the LOC columns
// fail instead of reporting 0.
func TestLOCOutsideRepoFails(t *testing.T) {
	t.Chdir(t.TempDir())
	if n, err := loc("core"); err == nil {
		t.Fatalf("loc outside the repository = %d, want an error", n)
	}
	if _, err := table1(); err == nil {
		t.Fatal("table 1 outside the repository: want an error")
	}
}

// Every oracle the registry routes a fault to has a Table 3 column, so a
// new oracle cannot silently drop detections from the table.
func TestTable3CoversRegistryOracles(t *testing.T) {
	for _, info := range faults.All() {
		if !slices.Contains(table3Oracles, info.Oracle) {
			t.Errorf("%s: oracle %q has no table 3 column", info.ID, info.Oracle)
		}
	}
}

// Every ablation table builds at a small budget. The one ordering checked
// is the one any budget shows: rejection sampling discards more
// expressions than rectification. Which faults a campaign detects within
// a budget varies with the budget, so no detection count is compared.
func TestAblationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation campaigns are not short")
	}
	const budget = 20
	for _, build := range ablations {
		tbl, err := build(budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.Title)
		}
	}
	tbl, err := rejectionSampling(budget)
	if err != nil {
		t.Fatal(err)
	}
	if rect, reject := cell(t, tbl.Rows[0], 2), cell(t, tbl.Rows[1], 2); reject <= rect {
		t.Errorf("rejection sampling discarded %d expressions, rectification %d: want more", reject, rect)
	}
}

func cell(t *testing.T, row []string, c int) int {
	t.Helper()
	n, err := strconv.Atoi(row[c])
	if err != nil {
		t.Fatalf("row %v column %d: %v", row, c, err)
	}
	return n
}

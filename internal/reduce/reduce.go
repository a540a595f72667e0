// Package reduce shrinks bug-reproducing statement traces. The paper
// (§4.1) notes that SQLancer automatically deletes SQL statements that are
// unnecessary to reproduce a bug; reduced test cases averaged 3.71
// statements (Figure 2). This package implements that reduction with a
// greedy delta-debugging loop over the statement list.
package reduce

import (
	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/sqlval"
	"repro/internal/sut"
	"repro/internal/xerr"
)

// Check reports whether a candidate trace still reproduces the bug.
type Check func(trace []string) bool

// Statements minimizes a trace under check. The final statement (the
// failing query) is always kept. The input must satisfy check.
func Statements(trace []string, check Check) []string {
	cur := append([]string(nil), trace...)
	// Chunked removal first (halves the trace fast), then single
	// statements to a fixpoint.
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		changed := true
		for changed {
			changed = false
			for i := 0; i+chunk <= len(cur)-1; i++ { // keep the last stmt
				cand := make([]string, 0, len(cur)-chunk)
				cand = append(cand, cur[:i]...)
				cand = append(cand, cur[i+chunk:]...)
				if check(cand) {
					cur = cand
					changed = true
				}
			}
		}
	}
	return cur
}

// CheckerFor builds a Check that replays a candidate trace on a fresh
// database (sut.DefaultBackend) with the same fault set and decides
// whether the original bug still shows. Replay is deliberately
// string-based: the reduced trace must reproduce the bug for a client
// pasting SQL, regardless of which execution path first found it.
//
// For containment bugs: every pivot table must still contain its pivot
// row (ground truth via RawRows), the final query must succeed, and the
// expected tuple must be absent from its result.
// For metamorphic bugs (NoREC/TLP): the final statement and the bug's
// Compare query are both replayed and the oracle's comparison re-applied —
// the candidate reproduces iff the two sides still disagree.
// For error/crash bugs: the final statement must fail with the same error
// code.
func CheckerFor(bug *core.Bug, d dialect.Dialect, fs *faults.Set) Check {
	return func(trace []string) bool {
		if len(trace) == 0 {
			return false
		}
		if bug.Oracle == faults.OracleRecovery {
			// Recovery bugs replay on the durable pager backend and
			// re-apply the recorded crash schedule (oracle.RecoveryReplay
			// owns the arm/crash/compare protocol).
			db, err := sut.Open("", sut.Session{Dialect: d, Faults: fs, Storage: "pager"})
			if err != nil {
				return false
			}
			defer db.Close()
			return oracle.RecoveryReplay(db, bug, trace)
		}
		if bug.Oracle == faults.OracleSerializability {
			// Serializability bugs replay their session-tagged history on a
			// multi-session backend and re-run the serial-order search
			// (oracle.SerializabilityReplay owns the protocol).
			db, err := sut.Open("", sut.Session{Dialect: d, Faults: fs})
			if err != nil {
				return false
			}
			defer db.Close()
			return oracle.SerializabilityReplay(db, bug, trace)
		}
		db, err := sut.Open("", sut.Session{Dialect: d, Faults: fs})
		if err != nil {
			return false
		}
		defer db.Close()
		for _, sql := range trace[:len(trace)-1] {
			_, _ = db.Exec(sql) // setup errors just weaken the candidate
		}
		last := trace[len(trace)-1]
		if bug.Oracle == faults.OracleNoREC || bug.Oracle == faults.OracleTLP {
			return metamorphicReproduces(db, bug, d, last)
		}
		if bug.Oracle == faults.OracleContainment {
			res, err := db.Query(last)
			if err != nil {
				return false
			}
			for table, pivot := range bug.PivotTables {
				if !tableContains(db.Introspect(), table, pivot) {
					return false
				}
			}
			if bug.Negative {
				// §7 anticontainment: the bug is the pivot being present.
				return oracle.Containment(res.Rows, bug.Expected)
			}
			return !oracle.Containment(res.Rows, bug.Expected)
		}
		_, err = db.Exec(last)
		if err == nil {
			return false
		}
		code, ok := xerr.CodeOf(err)
		return ok && code == bug.Code
	}
}

// metamorphicReproduces re-runs a NoREC/TLP comparison on the replayed
// database: the final trace statement (optimized / partitioned query)
// against the bug's Compare partner (unoptimized / unpartitioned form).
func metamorphicReproduces(db sut.DB, bug *core.Bug, d dialect.Dialect, last string) bool {
	res, err := db.Query(last)
	if err != nil {
		return false
	}
	rows := sut.CloneRows(res.Rows) // kept across the Compare query
	cmp, err := db.Query(bug.Compare)
	if err != nil {
		return false
	}
	switch {
	case bug.Oracle == faults.OracleNoREC:
		want, ok := oracle.TruthyCount(cmp.Rows, d)
		return ok && len(rows) != want
	case bug.Agg != "":
		return !oracle.AggValuesEqual(bug.Agg, cmp.Rows, rows)
	default:
		return !oracle.MultisetEqual(rows, cmp.Rows)
	}
}

// tableContains checks ground-truth presence of a pivot row.
func tableContains(intro sut.Introspection, table string, pivot []sqlval.Value) bool {
	for _, row := range intro.RawRows(table) {
		if len(row) < len(pivot) {
			continue
		}
		match := true
		for i := range pivot {
			if !row[i].Equal(pivot[i]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Bug reduces a detection's trace in place and returns the reduced trace.
func Bug(bug *core.Bug, d dialect.Dialect, fs *faults.Set) []string {
	check := CheckerFor(bug, d, fs)
	if !check(bug.Trace) {
		// Not deterministically reproducible from the trace alone (e.g.
		// depends on engine-internal sequence state); return as-is.
		return bug.Trace
	}
	return Statements(bug.Trace, check)
}

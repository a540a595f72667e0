// Package oracle implements PQS's three test oracles: containment (does
// the result set contain the pivot row), error (did a statement raise an
// error that is never expected), and crash (did the DBMS die).
package oracle

import (
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// Verdict classifies a statement's outcome.
type Verdict uint8

// Verdicts.
const (
	// VerdictOK: no error.
	VerdictOK Verdict = iota
	// VerdictExpected: the error is on the statement's whitelist (e.g. a
	// UNIQUE violation on INSERT) and is ignored, per §3.3.
	VerdictExpected
	// VerdictArtifact: the error indicates a generator shortcoming
	// (syntax error, missing object), not a DBMS bug. Ignored but
	// counted separately so generator regressions are visible.
	VerdictArtifact
	// VerdictBug: the error oracle fires — this error is never expected.
	VerdictBug
	// VerdictCrash: the crash oracle fires (simulated SEGFAULT).
	VerdictCrash
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictExpected:
		return "expected"
	case VerdictArtifact:
		return "artifact"
	case VerdictBug:
		return "bug"
	case VerdictCrash:
		return "crash"
	default:
		return "verdict?"
	}
}

// Classify applies the error oracle to one statement outcome.
func Classify(st sqlast.Stmt, err error, d dialect.Dialect) Verdict {
	if err == nil {
		return VerdictOK
	}
	code, ok := xerr.CodeOf(err)
	if !ok {
		return VerdictBug // foreign error escaping the engine is a bug
	}
	if code == xerr.CodeCrash {
		return VerdictCrash
	}
	if xerr.AlwaysUnexpected(code) {
		return VerdictBug
	}
	// Generator artifacts are never expected and never bugs. CodeIO is
	// here because it only arises from simulated power cuts: the
	// recovery oracle owns the durability verdict, so a statement dying
	// with the pager is harness mechanics, not an engine bug.
	// CodeTxnState (COMMIT without BEGIN and the like) is harness misuse,
	// not an engine bug.
	switch code {
	case xerr.CodeSyntax, xerr.CodeUnsupported, xerr.CodeNoObject, xerr.CodeBusy, xerr.CodeIO,
		xerr.CodeTxnState:
		return VerdictArtifact
	}
	if expectedFor(st, code, d) {
		return VerdictExpected
	}
	return VerdictBug
}

// expectedFor is the per-statement expected-error whitelist (§3.3: "we
// defined a list of error messages that we might expect when executing the
// respective statement").
func expectedFor(st sqlast.Stmt, code xerr.Code, d dialect.Dialect) bool {
	// A transaction aborting with a serialization conflict is the expected,
	// retryable outcome of first-committer-wins concurrency control —
	// whether surfaced at COMMIT or at the first statement after a
	// concurrent schema change.
	if code == xerr.CodeConflict {
		switch st.(type) {
		case *sqlast.Txn, *sqlast.Insert, *sqlast.Update, *sqlast.Delete,
			*sqlast.Select, *sqlast.Compound:
			return true
		}
	}
	switch st.(type) {
	case *sqlast.Insert, *sqlast.Update:
		switch code {
		case xerr.CodeUnique, xerr.CodeNotNull, xerr.CodeCheck, xerr.CodeType, xerr.CodeRange:
			return true
		}
	case *sqlast.Delete, *sqlast.Select, *sqlast.Compound, *sqlast.CreateView:
		// Strict typing and arithmetic can fail at runtime in Postgres.
		switch code {
		case xerr.CodeType, xerr.CodeRange:
			return true
		}
	case *sqlast.CreateTable, *sqlast.CreateStats:
		return code == xerr.CodeDuplicateObject || code == xerr.CodeType
	case *sqlast.CreateIndex:
		// Building a UNIQUE index over duplicate data legitimately fails;
		// so can evaluating index expressions under strict typing.
		switch code {
		case xerr.CodeDuplicateObject, xerr.CodeUnique, xerr.CodeType, xerr.CodeRange:
			return true
		}
	case *sqlast.AlterTable:
		return code == xerr.CodeDuplicateObject || code == xerr.CodeNotNull
	case *sqlast.Drop:
		return false
	case *sqlast.Maintenance:
		// The paper's key observation: maintenance statements have no
		// expected errors — REINDEX raising "UNIQUE constraint failed"
		// or VACUUM failing at all indicates a bug.
		return false
	case *sqlast.SetOption:
		// The generator only sets valid options to valid values, so
		// Listing 3's "Incorrect arguments to SET" is a bug.
		return false
	}
	return false
}

// Containment checks whether the expected pivot tuple appears in the
// result rows (step 7 of Figure 1). Comparison is type-sensitive with
// numeric cross-type equality; NULL matches NULL.
func Containment(rows [][]sqlval.Value, expected []sqlval.Value) bool {
	for _, row := range rows {
		if len(row) != len(expected) {
			continue
		}
		match := true
		for i := range row {
			if !row[i].Equal(expected[i]) {
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

// OracleFor maps a verdict to the Table 3 oracle label.
func OracleFor(v Verdict) faults.Oracle {
	switch v {
	case VerdictCrash:
		return faults.OracleCrash
	default:
		return faults.OracleError
	}
}

// ErrorReport applies the error and crash oracles to one statement
// outcome: an error that is never expected, or a crash, becomes a Report
// attributed to by, without a trace (each caller renders its own). An
// expected error, a generator artifact or success gives nil. The verdict
// is returned for callers that count artifacts.
func ErrorReport(st sqlast.Stmt, err error, d dialect.Dialect, by string) (*Report, Verdict) {
	v := Classify(st, err, d)
	if v != VerdictBug && v != VerdictCrash {
		return nil, v
	}
	code, _ := xerr.CodeOf(err)
	return &Report{
		Oracle:     OracleFor(v),
		DetectedBy: by,
		Message:    err.Error(),
		Code:       code,
	}, v
}

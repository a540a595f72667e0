package eval

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
)

// FuzzEval feeds arbitrary parsed expressions, with no columns in scope, to
// both halves of the evaluator: the tree-walk Eval and a Program compiled
// against the empty (nil) layout. Neither may panic, and both must produce
// the same value or error. The one allowed difference is binding: Compile
// rejects an unresolvable column reference up front, while the tree walk
// reports it only if it reaches the reference. The seed corpus runs as a
// unit test under plain `go test`.
func FuzzEval(f *testing.F) {
	seeds := []string{
		"1 + 2 * 3",
		"'a' || 'b'",
		"1 / 0",
		"9223372036854775807 + 1",
		"-9223372036854775808 / -1",
		"NULL IS NOT NULL",
		"'12abc' + 1",
		"x'beef' = 'beef'",
		"CAST('0.5' AS INTEGER)",
		"CAST(x'' AS TEXT)",
		"1 << 70",
		"~(-1) >> 2",
		"'a' LIKE '%A_'",
		"1 BETWEEN NULL AND 2",
		"CASE WHEN 1 THEN 'x' ELSE 'y' END",
		"COALESCE(NULL, NULL, 3)",
		"ABS(-9223372036854775808)",
		"LENGTH(x'001122')",
		"NULLIF(1, 1.0)",
		"NOT (1 AND 0 OR NULL)",
		"'a' COLLATE NOCASE = 'A'",
		"1 <=> NULL",
		"5 % 0",
		"c0 + 1",
		"CASE WHEN 0 THEN c0 ELSE 2 END",
		"\"ghost\" = 'ghost'",
		// One seed per compiled instruction kind, so the differential
		// starts on each: constant, unary, AND, OR, comparison, BETWEEN,
		// IN list, CASE with and without an operand, CAST, function
		// call, LIKE, COLLATE, the double-negation and is-not-null
		// fault gates, and a demoted MaybeString.
		"42",
		"-(3) + ~5",
		"1 AND NULL",
		"0 OR NULL",
		"'b' >= 'B'",
		"'b' NOT BETWEEN 'a' AND 'c'",
		"2 IN (1, NULL, 2.0)",
		"CASE 1 WHEN 1.0 THEN 'one' WHEN 2 THEN 'two' END",
		"CASE WHEN NULL THEN 1 WHEN 1 THEN 2 ELSE 3 END",
		"CAST(3.7 AS SIGNED)",
		"UPPER('a') || LOWER('B')",
		"'abc' NOT LIKE 'A%'",
		"'a' = 'A' COLLATE NOCASE",
		"NOT NOT 2",
		"NOT (\"ghost\" IS NULL)",
		"\"ghost\"",
	}
	for _, s := range seeds {
		for d := range dialect.All {
			f.Add(s, uint8(d))
		}
	}
	f.Fuzz(func(t *testing.T, src string, db uint8) {
		d := dialect.All[int(db)%len(dialect.All)]
		expr, err := sqlparse.ParseExpr(src, d)
		if err != nil {
			return // not a parsable expression
		}
		ev := New(d)
		// Errors are fine (type errors, division by zero, overflow) as long
		// as both paths agree; a panic fails the target by itself.
		want := outcome(ev.Eval(expr, nil, nil))
		prog, err := ev.Compile(expr, nil, new(Code))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "no such column: ") {
				t.Fatalf("%s [%s]: Compile failed with a non-binding error: %v", src, d, err)
			}
			return
		}
		if got := outcome(prog.Eval(&Frame{})); got != want {
			t.Fatalf("%s [%s]: tree-walk %s, compiled %s", src, d, want, got)
		}
	})
}

// outcome renders a value-or-error result for comparison.
func outcome(v sqlval.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return v.Kind().String() + "(" + v.String() + ")"
}

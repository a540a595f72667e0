package oracle

import (
	"fmt"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

func init() {
	Register("norec", func(o Options) Oracle { return &noREC{opts: o} })
}

// noREC implements the NoREC metamorphic oracle from the same research
// lineage as PQS: rewrite a WHERE condition into the projection and compare
// cardinalities. The optimized query
//
//	SELECT * FROM t WHERE p
//
// lets the engine plan and optimize the predicate (index paths, pushdowns);
// the unoptimized form
//
//	SELECT p FROM t
//
// forces a full scan with per-row predicate evaluation and no access-path
// choice. The number of rows the first returns must equal the number of
// TRUE values the second produces — counted client-side with the
// independent interpreter's truthiness rules, so the engine's own boolean
// conversion is under test too. Unlike PQS, which tracks a single pivot
// row, NoREC validates the whole result cardinality, catching optimizer
// bugs that drop or duplicate rows PQS never selected as pivots.
//
// A noREC reuses its check memory like tlp: the query pair's scaffolds and
// the generator are overwritten by the next check, so the pair lives until
// the next Check and a Report renders its SQL at once.
type noREC struct {
	opts  Options
	own   Targets
	eg    gen.ExprGen
	from  [1]sqlast.TableRef
	val   [1]sqlast.ResultCol
	opt   sqlast.Select
	unopt sqlast.Select
}

// starCols is the optimized query's projection (shared, never mutated).
var starCols = []sqlast.ResultCol{{Star: true}}

// Name implements Oracle.
func (*noREC) Name() string { return "norec" }

// Check implements Oracle: one random predicate, one query pair.
func (n *noREC) Check(db sut.DB, env *Env) (*Report, error) {
	t, ok := env.Snapshot(db, &n.own).pick(env.Rnd)
	if !ok {
		return nil, nil
	}
	n.eg.Reset(env.Rnd, t.picks, env.Hints, depthOf(n.opts, env))
	pred := n.eg.Generate()
	n.from[0] = sqlast.TableRef{Name: t.name}
	n.opt = sqlast.Select{Cols: starCols, From: n.from[:], Where: pred}
	n.val[0] = sqlast.ResultCol{X: pred, Alias: "v"}
	n.unopt = sqlast.Select{Cols: n.val[:], From: n.from[:]}
	optRes, rep := ExecCheck(db, env, &n.opt, "norec")
	if optRes == nil {
		return rep, nil
	}
	// Read before the next statement, which may overwrite the result.
	got := len(optRes.Rows)
	unoptRes, rep := ExecCheck(db, env, &n.unopt, "norec")
	if unoptRes == nil {
		return rep, nil
	}
	want, ok := TruthyCount(unoptRes.Rows, env.Dialect)
	if !ok {
		return nil, nil // unconvertible value (dialect edge): discard
	}
	if got != want {
		return &Report{
			Oracle:     faults.OracleNoREC,
			DetectedBy: "norec",
			Message: fmt.Sprintf(
				"NoREC mismatch on %s: optimized WHERE returned %d rows, predicate is TRUE on %d",
				t.name, got, want),
			Trace:   append(env.SetupTrace(), sqlast.SQL(&n.opt, env.Dialect)),
			Compare: sqlast.SQL(&n.unopt, env.Dialect),
		}, nil
	}
	return nil, nil
}

func depthOf(o Options, env *Env) int {
	if o.MaxExprDepth > 0 {
		return o.MaxExprDepth
	}
	return env.Depth()
}

// TruthyCount counts the rows whose first column is TRUE in the dialect's
// boolean interpretation, using the independent interpreter's truthiness
// rules (not the engine's). The second return is false when a value cannot
// be converted (strict-typing edge) and the check should be discarded.
func TruthyCount(rows [][]sqlval.Value, d dialect.Dialect) (int, bool) {
	n := 0
	for _, row := range rows {
		if len(row) == 0 {
			return 0, false
		}
		tb, err := interp.Truthiness(row[0], d)
		if err != nil {
			return 0, false
		}
		if tb == sqlval.TriTrue {
			n++
		}
	}
	return n, true
}

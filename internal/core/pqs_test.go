package core

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// TestNoFalsePositives is the soundness test: with no faults enabled, PQS
// must never report a bug, in any dialect, across many databases. A
// failure here means the engine and the oracle interpreter disagree — a
// false positive that would poison every campaign.
func TestNoFalsePositives(t *testing.T) {
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 60; seed++ {
				tester := NewTester(Config{Session: sut.Session{Dialect: d}, Seed: seed, QueriesPerDB: 20})
				bug, err := tester.RunDatabase()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if bug != nil {
					t.Fatalf("seed %d: false positive (%s oracle): %s\ntrace:\n%s",
						seed, bug.Oracle, bug.Message, traceText(bug.Trace))
				}
			}
		})
	}
}

func traceText(trace []string) string {
	out := ""
	for _, s := range trace {
		out += "  " + s + ";\n"
	}
	return out
}

// detectWithin runs PQS against one enabled fault until detection or the
// database budget runs out.
func detectWithin(t *testing.T, f faults.Fault, budget int) *Bug {
	t.Helper()
	info, ok := faults.Lookup(f)
	if !ok {
		t.Fatalf("unknown fault %s", f)
	}
	for seed := int64(1); seed <= int64(budget); seed++ {
		tester := NewTester(Config{
			Session: sut.Session{Dialect: info.Dialect, Faults: faults.NewSet(f)},
			Seed:    seed,
		})
		bug, err := tester.RunDatabase()
		if err != nil {
			t.Fatalf("fault %s seed %d: %v", f, seed, err)
		}
		if bug != nil {
			return bug
		}
	}
	return nil
}

// TestDetectsRepresentativeFaults checks that PQS finds one fault of each
// oracle class per dialect within a modest budget. The full corpus runs in
// the campaign benchmarks.
func TestDetectsRepresentativeFaults(t *testing.T) {
	cases := []struct {
		f      faults.Fault
		budget int
	}{
		{faults.PartialIndexNotNull, 300},
		{faults.JoinPredicatePushdown, 150},
		{faults.InheritanceGroupBy, 400},
		{faults.VacuumCorrupt, 150},
		{faults.SetOptionError, 200},
		{faults.CheckTableCrash, 300},
		{faults.InsertVisibility, 100},
	}
	for _, c := range cases {
		c := c
		t.Run(string(c.f), func(t *testing.T) {
			t.Parallel()
			bug := detectWithin(t, c.f, c.budget)
			if bug == nil {
				t.Fatalf("fault %s not detected within %d databases", c.f, c.budget)
			}
			info, _ := faults.Lookup(c.f)
			if bug.Oracle != info.Oracle {
				t.Errorf("fault %s detected by %s oracle, registry expects %s (message: %s)",
					c.f, bug.Oracle, info.Oracle, bug.Message)
			}
			if len(bug.Trace) == 0 {
				t.Error("detection must carry a reproduction trace")
			}
		})
	}
}

// TestRectify checks Algorithm 3 on a bound pivot: for an expression of each
// truth value, Rectify's output evaluates TRUE.
func TestRectify(t *testing.T) {
	checkRectifier(t, Rectify, sqlval.TriTrue)
}

// TestRectifyFalse checks the §7 dual: for an expression of each truth value,
// RectifyFalse's output evaluates FALSE.
func TestRectifyFalse(t *testing.T) {
	checkRectifier(t, RectifyFalse, sqlval.TriFalse)
}

// checkRectifier rectifies a TRUE, a FALSE and a NULL expression over a bound
// pivot row and checks that each result evaluates to want.
func checkRectifier(t *testing.T, rectify func(*sqlast.Arena, sqlast.Expr, sqlval.TriBool) sqlast.Expr, want sqlval.TriBool) {
	t.Helper()
	ctx := interp.NewContext(dialect.SQLite)
	ctx.Bind("t0", "c0", interp.ColInfo{Val: sqlval.Int(3)})
	ctx.Bind("t0", "c1", interp.ColInfo{Val: sqlval.Null()})
	for _, tc := range []struct {
		name, expr string
		tb         sqlval.TriBool
	}{
		{"true", "c0 > 1", sqlval.TriTrue},
		{"false", "c0 > 5", sqlval.TriFalse},
		{"null", "c0 > c1", sqlval.TriUnknown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := sqlparse.ParseExpr(tc.expr, dialect.SQLite)
			if err != nil {
				t.Fatal(err)
			}
			if tb, err := interp.EvalBool(e, ctx); err != nil || tb != tc.tb {
				t.Fatalf("%s evaluates to %v (err %v), want %v", tc.expr, tb, err, tc.tb)
			}
			got := rectify(&sqlast.Arena{}, e, tc.tb)
			if tb, err := interp.EvalBool(got, ctx); err != nil || tb != want {
				t.Errorf("rectified %s = %s evaluates to %v (err %v), want %v",
					tc.expr, sqlast.ExprSQL(got, dialect.SQLite), tb, err, want)
			}
		})
	}
}

// TestRectifiedAlwaysTrue is the Algorithm 3 property: for any generated
// expression, the rectified form evaluates to TRUE on the pivot row.
func TestRectifiedAlwaysTrue(t *testing.T) {
	for _, d := range dialect.All {
		tester := NewTester(Config{Session: sut.Session{Dialect: d}, Seed: 7})
		ctx := interp.NewContext(d)
		pivotVals := []sqlval.Value{sqlval.Null(), sqlval.Int(3), sqlval.Text("a")}
		if d == dialect.Postgres {
			pivotVals = []sqlval.Value{sqlval.Null(), sqlval.Int(3), sqlval.Bool(true)}
		}
		names := []string{"c0", "c1", "c2"}
		types := []string{"", "INT", "TEXT"}
		if d == dialect.Postgres {
			types = []string{"INT", "INT", "BOOLEAN"}
		}
		var cols []gen.ColumnPick
		for i, n := range names {
			ctx.Bind("t0", n, interp.ColInfo{Val: pivotVals[i]})
			cols = append(cols, gen.ColumnPick{
				Table:  "t0",
				Column: schema.ColumnInfo{Name: n, TypeName: types[i]},
			})
		}
		eg := &gen.ExprGen{Rnd: tester.rnd, Cols: cols, Hints: pivotVals, ColValues: pivotVals, MaxDepth: tester.cfg.MaxExprDepth}
		pqs := newPQS(tester.cfg, tester.stats)
		for i := 0; i < 500; i++ {
			expr, ok := pqs.rectifiedCondition(ctx, eg)
			if !ok {
				continue
			}
			tb, err := interp.EvalBool(expr, ctx)
			if err != nil {
				t.Fatalf("[%s] rectified expression errored: %v", d, err)
			}
			if tb != sqlval.TriTrue {
				t.Fatalf("[%s] rectified expression is %v, want TRUE: %s",
					d, tb, sqlast.ExprSQL(expr, d))
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	tester := NewTester(Config{Session: sut.Session{Dialect: dialect.SQLite}, Seed: 11, QueriesPerDB: 5})
	for i := 0; i < 3; i++ {
		if _, err := tester.RunDatabase(); err != nil {
			t.Fatal(err)
		}
	}
	s := tester.Stats()
	if s.Databases != 3 || s.Statements == 0 || s.Queries == 0 {
		t.Errorf("stats not accumulating: %+v", s)
	}
	var merged Stats
	merged.Rectified = map[sqlval.TriBool]int{}
	merged.Add(s)
	if merged.Statements != s.Statements {
		t.Error("Stats.Add broken")
	}
}

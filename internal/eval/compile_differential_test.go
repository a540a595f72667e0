package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// diffWorld is a two-table row world: the one Layout both sides of the
// equivalence bind through, so any divergence the suite finds is in
// evaluation, not binding.
type diffWorld struct {
	rels []diffRel
	rows [][]sqlval.Value
}

type diffRel struct {
	name string
	cols []diffCol
}

type diffCol struct {
	name string
	meta eval.Meta
}

func (w *diffWorld) resolve(table, column string) (ri, ci int, ambiguous bool) {
	if table != "" {
		for i, r := range w.rels {
			if strings.EqualFold(r.name, table) {
				for j, c := range r.cols {
					if strings.EqualFold(c.name, column) {
						return i, j, false
					}
				}
				return -1, -1, false
			}
		}
		return -1, -1, false
	}
	fr, fc, n := -1, -1, 0
	for i, r := range w.rels {
		for j, c := range r.cols {
			if strings.EqualFold(c.name, column) {
				fr, fc = i, j
				n++
			}
		}
	}
	if n == 1 {
		return fr, fc, false
	}
	return -1, -1, n > 1
}

// NumRels implements eval.Layout.
func (w *diffWorld) NumRels() int { return len(w.rels) }

// Resolve implements eval.Layout.
func (w *diffWorld) Resolve(table, column string) (eval.Slot, eval.Meta, eval.Resolution) {
	ri, ci, ambiguous := w.resolve(table, column)
	if ambiguous {
		return eval.Slot{}, eval.Meta{}, eval.Ambiguous
	}
	if ri < 0 {
		return eval.Slot{}, eval.Meta{}, eval.Missing
	}
	return eval.Slot{Rel: ri, Col: ci}, w.rels[ri].cols[ci].meta, eval.Found
}

// diffWorldFor builds the dialect's test schema: mixed affinities,
// non-default collations, TINYINT and UNSIGNED metadata (the MySQL
// value-range fault triggers), a MEMORY-engine table (the Listing 11
// trigger), and a column name shared across both tables so qualified
// resolution is exercised.
func diffWorldFor(d dialect.Dialect) (*diffWorld, []gen.ColumnPick) {
	meta := func(typeName, collate string, unsigned bool, engine string) eval.Meta {
		coll, _ := sqlval.ParseCollation(collate)
		return eval.Meta{
			Coll:        coll,
			Affinity:    sqlval.AffinityOf(typeName),
			Unsigned:    unsigned,
			TypeName:    typeName,
			TableEngine: engine,
		}
	}
	engine1 := ""
	if d == dialect.MySQL {
		engine1 = "MEMORY"
	}
	w := &diffWorld{
		rels: []diffRel{
			{name: "t0", cols: []diffCol{
				{name: "c0", meta: meta("INTEGER", "", false, "")},
				{name: "c1", meta: meta("TEXT", "NOCASE", false, "")},
				{name: "c2", meta: meta("REAL", "", false, "")},
				{name: "dup", meta: meta("TEXT", "", false, "")},
			}},
			{name: "t1", cols: []diffCol{
				{name: "c3", meta: meta("TINYINT", "", false, engine1)},
				{name: "c4", meta: meta("TEXT", "RTRIM", false, engine1)},
				{name: "c5", meta: meta("BIGINT UNSIGNED", "", true, engine1)},
				{name: "dup", meta: meta("INTEGER", "", false, engine1)},
			}},
		},
		rows: [][]sqlval.Value{make([]sqlval.Value, 4), make([]sqlval.Value, 4)},
	}
	var picks []gen.ColumnPick
	for _, r := range w.rels {
		for _, c := range r.cols {
			picks = append(picks, gen.ColumnPick{Table: r.name, Column: schema.ColumnInfo{
				Name:     c.name,
				TypeName: c.meta.TypeName,
				Affinity: c.meta.Affinity.String(),
				Unsigned: c.meta.Unsigned,
				Collate:  c.meta.Coll.String(),
			}})
		}
	}
	return w, picks
}

// stripSomeQualifiers drops the table qualifier from references whose bare
// name stays uniquely resolvable, exercising unqualified slot binding.
func stripSomeQualifiers(e sqlast.Expr, w *diffWorld, rnd *gen.Rand) {
	sqlast.WalkExprs(e, func(x sqlast.Expr) bool {
		if cr, ok := x.(*sqlast.ColumnRef); ok && cr.Table != "" && rnd.Bool(0.25) {
			if _, _, ambiguous := w.resolve("", cr.Column); !ambiguous {
				if ri, _, _ := w.resolve("", cr.Column); ri >= 0 {
					cr.Table = ""
				}
			}
		}
		return true
	})
}

func describeOutcome(v sqlval.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%s(%s)", v.Kind(), v.String())
}

// TestCompiledTreeWalkEquivalence is the compiled-vs-interpreted
// differential suite: random generated expressions — including NULLs,
// collations, mixed-kind comparisons, and every registered fault enabled
// one at a time — must produce identical value-or-error results through
// Evaluator.Eval and through Compile+Program.Eval (and likewise for the
// boolean filter entry points).
func TestCompiledTreeWalkEquivalence(t *testing.T) {
	const exprsPerConfig = 400
	for _, d := range dialect.All {
		faultSets := []*faults.Set{nil}
		names := []string{"sound"}
		for _, info := range faults.ForDialect(d) {
			faultSets = append(faultSets, faults.NewSet(info.ID))
			names = append(names, string(info.ID))
		}
		for fi, fs := range faultSets {
			fs := fs
			d := d
			t.Run(d.String()+"/"+names[fi], func(t *testing.T) {
				t.Parallel()
				w, picks := diffWorldFor(d)
				ev := &eval.Evaluator{D: d, Faults: fs}
				rnd := gen.NewRand(d, int64(1000+fi))
				frame := &eval.Frame{Rows: w.rows}
				var hints []sqlval.Value
				for i := 0; i < 8; i++ {
					hints = append(hints, rnd.Value())
				}
				eg := &gen.ExprGen{Rnd: rnd, Cols: picks, Hints: hints, MaxDepth: 4}
				for i := 0; i < exprsPerConfig; i++ {
					if i%5 == 0 {
						for ri := range w.rows {
							for ci := range w.rows[ri] {
								w.rows[ri][ci] = rnd.Value()
							}
						}
					}
					expr := eg.Generate()
					stripSomeQualifiers(expr, w, rnd)

					wantV, wantErr := ev.Eval(expr, w, frame)
					prog, cerr := ev.Compile(expr, w, new(eval.Code))
					if cerr != nil {
						t.Fatalf("expr %d: Compile failed on a fully-resolvable expression: %v\nexpr: %s",
							i, cerr, sqlast.ExprSQL(expr, d))
					}
					gotV, gotErr := prog.Eval(frame)
					if describeOutcome(wantV, wantErr) != describeOutcome(gotV, gotErr) {
						t.Fatalf("expr %d diverged:\n  expr: %s\n  tree-walk: %s\n  compiled:  %s",
							i, sqlast.ExprSQL(expr, d), describeOutcome(wantV, wantErr), describeOutcome(gotV, gotErr))
					}

					wantTB, wantTBErr := ev.EvalBool(expr, w, frame)
					gotTB, gotTBErr := prog.EvalBool(frame)
					if wantTB != gotTB || (wantTBErr == nil) != (gotTBErr == nil) ||
						(wantTBErr != nil && wantTBErr.Error() != gotTBErr.Error()) {
						t.Fatalf("expr %d bool diverged:\n  expr: %s\n  tree-walk: %v/%v\n  compiled:  %v/%v",
							i, sqlast.ExprSQL(expr, d), wantTB, wantTBErr, gotTB, gotTBErr)
					}
				}
			})
		}
	}
}

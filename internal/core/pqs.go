// Package core is the heart of the reproduction: Pivoted Query Synthesis
// (Figure 1 of the paper). A Tester repeatedly (1) generates a random
// database, (2) selects a pivot row from every table, (3) generates random
// expressions, (4) rectifies them to TRUE with the oracle interpreter,
// (5) synthesizes a query using them as WHERE/JOIN conditions, (6) runs it
// on the engine, and (7) checks that the pivot row is contained in the
// result set.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/oracle"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
	// The blank import registers sut.DefaultBackend so RunDatabase works
	// out of the box from any consumer. This deliberately links the
	// in-process engine into the tester stack: it is this repo's only
	// in-tree DBMS. A build targeting solely external backends would
	// move this registration to its main package.
	_ "repro/internal/sut/memengine"
)

// Config parameterizes a Tester. The embedded Session is what every
// database of the campaign opens with: dialect, injected faults, storage
// mode, wire fidelity, and switched-off engine features. The
// UseEngineAsOracle ablation evaluates pivot checks with the engine's
// tree-walk evaluator whatever the session's switches are.
type Config struct {
	sut.Session
	Seed int64

	// Backend names the sut driver databases are opened on ("" selects
	// sut.DefaultBackend, the in-process engine).
	Backend string
	// Oracle names the registry oracle of the query phase of each
	// database lifecycle ("" means "pqs", the pivot loop of Figure 1;
	// "tlp", "norec", "serializability", "recovery"). The tester builds
	// its pqs oracle itself, from this Config and its Stats; the others
	// resolve through the internal/oracle registry. The
	// database-generation phase and its error/crash oracle are shared by
	// every choice.
	Oracle string

	// MaxExprDepth bounds generated expression trees (Algorithm 1's
	// maxdepth). Default 3.
	MaxExprDepth int
	// MinRows/MaxRows bound per-table row counts (paper: 10–30; defaults
	// are lower for campaign throughput — the ablation bench sweeps this).
	MinRows, MaxRows int
	// MaxTables bounds tables per database. Default 3.
	MaxTables int
	// QueriesPerDB is how many oracle checks (pivot iterations, for PQS)
	// run against one database before regenerating (the "continue with 1
	// or 2" choice in Figure 1).
	QueriesPerDB int
	// DisableRectification switches Algorithm 3 off and uses rejection
	// sampling instead (ablation 2 in DESIGN.md).
	DisableRectification bool
	// UseEngineAsOracle evaluates pivot expressions with the engine's own
	// evaluator instead of the independent interpreter (ablation 1).
	UseEngineAsOracle bool
	// ContainmentViaQuery folds the containment check into the query with
	// INTERSECT, the way §3.2 combines steps 6 and 7, instead of the
	// client-side row search.
	ContainmentViaQuery bool
	// NegativeChecks additionally generates FALSE-rectified conditions
	// and verifies the pivot row is NOT contained — the paper's §7
	// future-work extension. It catches bugs that erroneously add rows.
	NegativeChecks bool
	// Sessions fixes the serializability oracle's concurrent-session count
	// per interleaved history (the `-sessions` flag; 0 = seed-derived 2 or
	// 3). Ignored by the other oracles.
	Sessions int
}

func (c Config) withDefaults() Config {
	if c.MaxExprDepth <= 0 {
		c.MaxExprDepth = 3
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 8
	}
	if c.MinRows <= 0 {
		c.MinRows = 1
	}
	if c.MaxTables <= 0 {
		c.MaxTables = 3
	}
	if c.QueriesPerDB <= 0 {
		c.QueriesPerDB = 30
	}
	return c
}

// Bug is one oracle detection. The canonical type is oracle.Report (so
// metamorphic oracles construct detections without importing the PQS
// loop); the alias keeps the historical core.Bug name for the runner,
// reducer, fuzzer, and CLIs.
type Bug = oracle.Report

// Stats counts tester work (the throughput experiment).
type Stats struct {
	Statements int
	Queries    int
	Databases  int
	Rectified  map[sqlval.TriBool]int
	Artifacts  int
	Discarded  int // expressions the oracle could not evaluate
}

func newStats() *Stats { return &Stats{Rectified: map[sqlval.TriBool]int{}} }

// Add merges other into s.
func (s *Stats) Add(o *Stats) {
	s.Statements += o.Statements
	s.Queries += o.Queries
	s.Databases += o.Databases
	s.Artifacts += o.Artifacts
	s.Discarded += o.Discarded
	for k, v := range o.Rectified {
		s.Rectified[k] += v
	}
}

// Tester runs database lifecycles against fresh engine instances: it
// builds each database (step 1 of Figure 1, under the error and crash
// oracles) and hands it to its query-phase oracle for QueriesPerDB checks.
// The state generator is reset per database, so the statements that built
// a database live until the next one.
type Tester struct {
	cfg   Config
	rnd   *gen.Rand
	stats *Stats

	// oracles keeps every query-phase oracle resolved so far by name (pqs
	// built here from the tester's Config and Stats, the others through
	// the registry), so rotating oracles across databases (SetOracle)
	// keeps each one's reused check memory.
	oracles map[string]oracle.Oracle
	// env is the oracles' Env, and targets its per-database check-target
	// snapshot; tr is the lifecycle's statement trace.
	env     oracle.Env
	targets oracle.Targets
	tr      trace
	sg      gen.StateGen
}

// NewTester creates a tester.
func NewTester(cfg Config) *Tester {
	cfg = cfg.withDefaults()
	t := &Tester{
		cfg:   cfg,
		rnd:   gen.NewRand(cfg.Dialect, cfg.Seed),
		stats: newStats(),
		tr:    trace{d: cfg.Dialect},
		sg: gen.StateGen{
			MinRows:   cfg.MinRows,
			MaxRows:   cfg.MaxRows,
			MaxTables: cfg.MaxTables,
		},
	}
	t.env = oracle.Env{
		Dialect:      cfg.Dialect,
		Rnd:          t.rnd,
		MaxExprDepth: cfg.MaxExprDepth,
		Setup:        t.tr.render,
		RecordStmt: func() {
			t.stats.Statements++
			t.stats.Queries++
		},
		Targets: &t.targets,
	}
	return t
}

// queryOracle returns the oracle cfg.Oracle names, resolving each name
// once per tester.
func (t *Tester) queryOracle() (oracle.Oracle, error) {
	name := t.oracleName()
	if o, ok := t.oracles[name]; ok {
		return o, nil
	}
	var o oracle.Oracle
	if name == "pqs" {
		o = newPQS(t.cfg, t.stats)
	} else {
		var err error
		if o, err = oracle.New(name, oracle.Options{MaxExprDepth: t.cfg.MaxExprDepth, Sessions: t.cfg.Sessions}); err != nil {
			return nil, err
		}
	}
	if t.oracles == nil {
		t.oracles = map[string]oracle.Oracle{}
	}
	t.oracles[name] = o
	return o, nil
}

// oracleName reports the testing oracle this tester runs.
func (t *Tester) oracleName() string {
	if t.cfg.Oracle == "" {
		return "pqs"
	}
	return t.cfg.Oracle
}

// Stats exposes accumulated counters.
func (t *Tester) Stats() *Stats { return t.stats }

// bugSignal aborts statement generation when an oracle fires.
type bugSignal struct{ bug *Bug }

// Error implements the error interface.
func (b *bugSignal) Error() string { return "oracle detection: " + b.bug.Message }

// trace accumulates the statements that built a database as ASTs and
// renders SQL only when a detection needs a reproduction trace —
// rendering every statement in the hot loop costs about as much as
// executing it (the engine never mutates statements it executes, so the
// ASTs stay faithful).
type trace struct {
	d     dialect.Dialect
	stmts []sqlast.Stmt
}

// render materializes the trace as SQL text.
func (tr *trace) render() []string { return RenderStmts(tr.stmts, tr.d) }

// RenderStmts renders a statement sequence to SQL text — the one place
// reproduction traces are materialized (core and fuzz both defer
// rendering until a detection fires).
func RenderStmts(stmts []sqlast.Stmt, d dialect.Dialect) []string {
	out := make([]string, len(stmts))
	for i, st := range stmts {
		out[i] = sqlast.SQL(st, d)
	}
	return out
}

// RunDatabase executes one full database lifecycle (steps 1–7, looped) and
// returns the first detection, or nil.
func (t *Tester) RunDatabase() (*Bug, error) {
	db, err := sut.Open(t.cfg.Backend, t.cfg.Session)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return t.runOn(db)
}

// runOn runs one lifecycle against a specific database under test.
func (t *Tester) runOn(db sut.DB) (*Bug, error) {
	o, err := t.queryOracle()
	if err != nil {
		return nil, err
	}
	t.stats.Databases++
	tr := &t.tr
	tr.stmts = tr.stmts[:0]

	apply := func(st sqlast.Stmt) error {
		tr.stmts = append(tr.stmts, st)
		t.stats.Statements++
		_, err := db.ExecAST(st)
		rep, v := oracle.ErrorReport(st, err, t.cfg.Dialect, t.oracleName())
		if rep != nil {
			rep.Trace = tr.render()
			return &bugSignal{bug: rep}
		}
		if v == oracle.VerdictArtifact {
			t.stats.Artifacts++
		}
		return nil
	}

	sg := &t.sg
	sg.Reset(t.rnd, db.Introspect(), nil)
	if err := sg.BuildDatabase(apply); err != nil {
		if sig, ok := err.(*bugSignal); ok {
			return sig.bug, nil
		}
		return nil, err
	}

	// The query phase: every oracle checks the database built above, so
	// only the check differs between them.
	env := &t.env
	env.Hints = sg.Hints
	t.targets.Reset()
	for q := 0; q < t.cfg.QueriesPerDB; q++ {
		rep, err := o.Check(db, env)
		if err != nil {
			return nil, err
		}
		if rep != nil {
			return rep, nil
		}
	}
	return nil, nil
}

// pivotRow is one table's pivot selection: its source (whose rows keep
// the full scan-order snapshot), the pivot's values and its position in
// the snapshot, so buildQuery can compute the pivot's exact ORDER BY rank
// for position-tight LIMITs.
type pivotRow struct {
	*oracle.RowSource
	vals   []sqlval.Value
	rowIdx int
}

// Check implements oracle.Oracle: one pivot iteration (steps 2–7) against
// db's current state, in env's dialect.
func (o *pqsOracle) Check(db sut.DB, env *oracle.Env) (*Bug, error) {
	// The check runs in env's dialect, which a registry-built oracle
	// learns here.
	o.rnd, o.cfg.Dialect = env.Rnd, env.Dialect
	srcs := env.Snapshot(db, &o.own).RowSources(db.Introspect())
	// Step 2: select a pivot row from each table.
	pivots := o.pivots[:0]
	for i := range srcs {
		src := &srcs[i]
		ri := o.rnd.Intn(len(src.Rows))
		pivots = append(pivots, pivotRow{RowSource: src, vals: src.Rows[ri], rowIdx: ri})
	}
	o.pivots = pivots
	if len(pivots) == 0 {
		return nil, nil
	}
	// Use a random non-empty subset of tables (1..all), keeping join
	// fan-out bounded (§3.4: row-count pressure).
	for len(pivots) > 1 && o.rnd.Bool(0.4) {
		pivots = pivots[:len(pivots)-1]
	}

	ctx, cols, hints := o.bindPivot(db.Introspect(), pivots, env.Hints)
	// One generator serves every condition and result expression of the
	// iteration, so its per-category column grouping is built once; the
	// oracle's generator is reset for it, keeping the grouping's memory.
	depth := o.cfg.MaxExprDepth
	if depth <= 0 {
		depth = env.Depth()
	}
	eg := &o.eg
	eg.Reset(o.rnd, cols, hints, depth)
	eg.ColValues = pivotColValues(cols, hints)

	// §7 extension: occasionally check the dual property — a FALSE
	// condition must NOT fetch the pivot row.
	if o.cfg.NegativeChecks && o.rnd.Bool(0.3) {
		return o.negativeIteration(db, env, pivots, ctx, eg)
	}

	// Steps 3–4: generate and rectify conditions.
	where, ok := o.rectifiedCondition(ctx, eg)
	if !ok {
		return nil, nil
	}

	// Step 5: synthesize the query.
	sel, expected := o.buildQuery(ctx, pivots, eg, where)

	// Step 6+7 combined (§3.2): either run the query and search the
	// result client-side, or wrap it in the paper's INTERSECT form where
	// a non-empty result proves containment.
	var query sqlast.Stmt = sel
	if o.cfg.ContainmentViaQuery {
		query = intersectForm(sel, expected)
	}
	res, rep := o.exec(db, env, query)
	if res == nil {
		return rep, nil
	}
	contained := oracle.Containment(res.Rows, expected)
	if o.cfg.ContainmentViaQuery {
		contained = len(res.Rows) > 0
	}
	if !contained {
		return containmentReport(env, query, expected, pivots, false,
			fmt.Sprintf("pivot row %s not contained in result set (%d rows)", tupleString(expected), len(res.Rows))), nil
	}
	return nil, nil
}

// exec runs a pivot query through the registry's check path. A nil
// Result means the query failed: the Bug is the error or crash detection,
// or nil for an expected runtime error (strict typing), counted as
// discarded.
func (o *pqsOracle) exec(db sut.DB, env *oracle.Env, query sqlast.Stmt) (*sut.Result, *Bug) {
	res, rep := oracle.ExecCheck(db, env, query, "pqs")
	if res == nil && rep == nil {
		o.stats.Discarded++
	}
	return res, rep
}

// containmentReport is a containment detection of query: the pivot tuple
// expected was missing (or, negative, present despite a FALSE condition).
// It copies expected, which the next check overwrites.
func containmentReport(env *oracle.Env, query sqlast.Stmt, expected []sqlval.Value, pivots []pivotRow, negative bool, msg string) *Bug {
	return &Bug{
		Oracle:      faults.OracleContainment,
		DetectedBy:  "pqs",
		Message:     msg,
		Trace:       append(env.SetupTrace(), sqlast.SQL(query, env.Dialect)),
		Expected:    slices.Clone(expected),
		PivotTables: pivotTables(pivots),
		Negative:    negative,
	}
}

// pivotTables maps each pivot table to its pivot row, for a detection.
func pivotTables(pivots []pivotRow) map[string][]sqlval.Value {
	pt := make(map[string][]sqlval.Value, len(pivots))
	for _, p := range pivots {
		pt[p.Table] = p.vals
	}
	return pt
}

// resetSelect empties the oracle's Select scaffold for a new pivot query,
// keeping its clause slices' memory.
func (o *pqsOracle) resetSelect(where sqlast.Expr) *sqlast.Select {
	sel := &o.sel
	*sel = sqlast.Select{
		Cols:    sel.Cols[:0],
		From:    sel.From[:0],
		Joins:   sel.Joins[:0],
		Where:   where,
		GroupBy: sel.GroupBy[:0],
		OrderBy: sel.OrderBy[:0],
	}
	return sel
}

// intersectForm wraps a pivot query in the paper's containment idiom:
// SELECT <pivot literals> INTERSECT <query> returns a row iff the pivot
// tuple is contained.
func intersectForm(sel *sqlast.Select, expected []sqlval.Value) *sqlast.Compound {
	lits := &sqlast.Select{}
	for _, v := range expected {
		lits.Cols = append(lits.Cols, sqlast.ResultCol{X: sqlast.Lit(v)})
	}
	return &sqlast.Compound{
		Selects: []*sqlast.Select{lits, sel},
		Ops:     []sqlast.CompoundOp{sqlast.OpIntersect},
	}
}

// negativeIteration generates a FALSE-rectified condition and verifies the
// pivot row is absent from the result (§7: "we could also generate
// conditions and check that the pivot row is not contained").
func (o *pqsOracle) negativeIteration(db sut.DB, env *oracle.Env, pivots []pivotRow, ctx *interp.Context, eg *gen.ExprGen) (*Bug, error) {
	where, ok := o.falsifiedCondition(ctx, eg)
	if !ok {
		return nil, nil
	}
	// Result columns are the full pivot tuple (no value expressions):
	// with the condition referencing only these tables' columns, any
	// combo whose tuple equals the pivot tuple evaluates the condition
	// identically, so presence of the tuple is exactly the violation.
	sel := o.resetSelect(where)
	expected := o.expected[:0]
	for _, p := range pivots {
		for ci := range p.Info.Columns {
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: p.Picks[ci].Ref})
			var v sqlval.Value
			if ci < len(p.vals) {
				v = p.vals[ci]
			}
			expected = append(expected, v)
		}
		sel.From = append(sel.From, sqlast.TableRef{Name: p.Table})
	}
	o.expected = expected

	res, rep := o.exec(db, env, sel)
	if res == nil {
		return rep, nil
	}
	if oracle.Containment(res.Rows, expected) {
		return containmentReport(env, sel, expected, pivots, true,
			fmt.Sprintf("pivot row %s contained despite FALSE condition (%d rows)", tupleString(expected), len(res.Rows))), nil
	}
	return nil, nil
}

// falsifiedCondition is the dual of rectifiedCondition: the generated
// expression is modified to evaluate FALSE on the pivot row.
func (o *pqsOracle) falsifiedCondition(ctx *interp.Context, eg *gen.ExprGen) (sqlast.Expr, bool) {
	for tries := 0; tries < 20; tries++ {
		expr := eg.Generate()
		tb, err := o.evalBool(expr, ctx)
		if err != nil {
			o.stats.Discarded++
			continue
		}
		falsified := RectifyFalse(eg.Nodes(), expr, tb)
		if check, err := o.evalBool(falsified, ctx); err != nil || check != sqlval.TriFalse {
			o.stats.Discarded++
			continue
		}
		return falsified, true
	}
	return nil, false
}

// RectifyFalse modifies an expression to yield FALSE: TRUE gets NOT, FALSE
// stays, NULL gets IS NOT NULL (which is FALSE for a NULL-valued
// expression). The wrapper comes from nodes.
func RectifyFalse(nodes *sqlast.Arena, expr sqlast.Expr, tb sqlval.TriBool) sqlast.Expr {
	switch tb {
	case sqlval.TriTrue:
		return nodes.Unary(sqlast.OpNot, expr)
	case sqlval.TriFalse:
		return expr
	default:
		return nodes.Unary(sqlast.OpNotNull, expr)
	}
}

// pivotColValues slices the pivot-aligned prefix of the hint pool:
// bindPivot appends one hint per bound column, in column order, before the
// general value pool.
func pivotColValues(cols []gen.ColumnPick, hints []sqlval.Value) []sqlval.Value {
	if len(hints) < len(cols) {
		return nil
	}
	return hints[:len(cols)]
}

func tupleString(vals []sqlval.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// bindPivot binds the pivot row into the oracle's interpreter context and
// fills the generator's column/hint pools: the pivot tables' column picks,
// and per column its pivot value ahead of the database's hints.
func (o *pqsOracle) bindPivot(intro sut.Introspection, pivots []pivotRow, dbHints []sqlval.Value) (*interp.Context, []gen.ColumnPick, []sqlval.Value) {
	ctx := &o.ctx
	ctx.Reset(o.cfg.Dialect)
	ctx.CaseSensitiveLike = intro.CaseSensitiveLike()
	cols := o.colsBuf[:0]
	hints := o.hintsBuf[:0]
	for _, p := range pivots {
		bindRowValues(ctx, p, p.vals)
		cols = append(cols, p.Picks...)
		for ci := range p.Picks {
			var v sqlval.Value
			if ci < len(p.vals) {
				v = p.vals[ci]
			}
			hints = append(hints, v)
		}
	}
	hints = append(hints, dbHints...)
	o.colsBuf, o.hintsBuf = cols, hints
	return ctx, cols, hints
}

// evalBool evaluates a condition on the pivot row through the configured
// oracle: the independent tree-walk interpreter (Algorithm 2 shares no
// evaluation machinery with the engine, which is what keeps evaluator bugs
// observable) or, under the UseEngineAsOracle ablation, the engine's own
// evaluator over the same bound pivot row.
func (o *pqsOracle) evalBool(expr sqlast.Expr, ctx *interp.Context) (sqlval.TriBool, error) {
	if !o.cfg.UseEngineAsOracle {
		return interp.EvalBool(expr, ctx)
	}
	ev, lay, f := engineEvaluatorFor(o.cfg, ctx)
	return ev.EvalBool(expr, lay, f)
}

// rectifiedCondition implements steps 3–4: generate a random expression,
// evaluate it on the pivot row, and modify it to yield TRUE (Algorithm 3).
func (o *pqsOracle) rectifiedCondition(ctx *interp.Context, eg *gen.ExprGen) (sqlast.Expr, bool) {
	for tries := 0; tries < 20; tries++ {
		expr := eg.Generate()
		tb, err := o.evalBool(expr, ctx)
		if err != nil {
			o.stats.Discarded++
			continue
		}
		if o.cfg.DisableRectification {
			// Ablation: rejection sampling — only keep TRUE expressions.
			if tb == sqlval.TriTrue {
				o.stats.Rectified[tb]++
				return expr, true
			}
			o.stats.Discarded++
			continue
		}
		o.stats.Rectified[tb]++
		rectified := Rectify(eg.Nodes(), expr, tb)
		// Sanity: the rectified condition must evaluate TRUE.
		if check, err := o.evalBool(rectified, ctx); err != nil || check != sqlval.TriTrue {
			o.stats.Discarded++
			continue
		}
		return rectified, true
	}
	return nil, false
}

// evalValue computes a result-column expression's expected value through
// the configured oracle (see evalBool).
func (o *pqsOracle) evalValue(expr sqlast.Expr, ctx *interp.Context) (sqlval.Value, error) {
	if !o.cfg.UseEngineAsOracle {
		return interp.Eval(expr, ctx)
	}
	ev, lay, f := engineEvaluatorFor(o.cfg, ctx)
	return ev.Eval(expr, lay, f)
}

// Rectify is Algorithm 3 verbatim: TRUE stays, FALSE gets NOT, NULL gets
// IS NULL. The wrapper comes from nodes, the generator's arena in the
// pivot loop, so it lives as long as the expression it wraps.
func Rectify(nodes *sqlast.Arena, expr sqlast.Expr, tb sqlval.TriBool) sqlast.Expr {
	switch tb {
	case sqlval.TriTrue:
		return expr
	case sqlval.TriFalse:
		return nodes.Unary(sqlast.OpNot, expr)
	default:
		return nodes.Unary(sqlast.OpIsNull, expr)
	}
}

// buildQuery implements step 5: a SELECT over the pivot tables whose WHERE
// (and JOIN) conditions are rectified-TRUE expressions, with random
// keywords (DISTINCT, ORDER BY, LIMIT, GROUP BY). The query and its
// expected tuple live in the oracle's scaffold until the next check.
func (o *pqsOracle) buildQuery(ctx *interp.Context, pivots []pivotRow, eg *gen.ExprGen, where sqlast.Expr) (*sqlast.Select, []sqlval.Value) {
	sel := o.resetSelect(where)
	expected := o.expected[:0]

	// Result columns: every pivot table column, occasionally replaced by
	// a random expression on columns (§3.4 extension).
	// plainCols marks the first pivot table's columns emitted as plain
	// references — the only legal sort keys for the position-tight ORDER
	// BY shape below (ORDER BY must match a result column).
	plainCols := o.plainCols[:0]
	for range pivots[0].Info.Columns {
		plainCols = append(plainCols, false)
	}
	o.plainCols = plainCols
	for pi, p := range pivots {
		for ci := range p.Info.Columns {
			if o.rnd.Bool(0.15) {
				expr := eg.GenerateValueExpr()
				v, err := o.evalValue(expr, ctx)
				if err == nil {
					sel.Cols = append(sel.Cols, sqlast.ResultCol{X: expr})
					expected = append(expected, v)
					continue
				}
				o.stats.Discarded++
			}
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: p.Picks[ci].Ref})
			if pi == 0 {
				plainCols[ci] = true
			}
			var v sqlval.Value
			if ci < len(p.vals) {
				v = p.vals[ci]
			}
			expected = append(expected, v)
		}
	}
	o.expected = expected

	// FROM and JOIN clauses. With multiple tables, sometimes express one
	// as JOIN ... ON <rectified-TRUE condition>, preferring plain
	// column-equality ON conditions that hold on the pivot pair — the
	// shape the planner turns into hash or index-lookup joins. The tables
	// placed before a join are exactly the earlier pivots, whose columns
	// lead eg.Cols.
	sel.From = append(sel.From, sqlast.TableRef{Name: pivots[0].Table})
	placed := len(pivots[0].Info.Columns)
	for _, p := range pivots[1:] {
		joined := placed + len(p.Info.Columns)
		if o.rnd.Bool(0.3) {
			var on sqlast.Expr
			ok := false
			if o.rnd.Bool(0.6) {
				on, ok = o.equiJoinOn(ctx, eg, placed, joined)
			}
			if !ok {
				on, ok = o.rectifiedCondition(ctx, eg)
			}
			if !ok {
				on = eg.Nodes().Lit(trueLiteral(o.cfg.Dialect))
			}
			kind := sqlast.JoinInner
			// LEFT JOIN is containment-safe: the pivot pair satisfies
			// the rectified ON condition, so it is always matched.
			if o.rnd.Bool(0.35) {
				kind = sqlast.JoinLeft
			}
			sel.Joins = append(sel.Joins, sqlast.JoinClause{
				Kind:  kind,
				Table: sqlast.TableRef{Name: p.Table},
				On:    on,
			})
		} else {
			sel.From = append(sel.From, sqlast.TableRef{Name: p.Table})
		}
		placed = joined
	}

	// Random query keywords (step 5: "we randomly select appropriate
	// keywords when generating these queries"). The position-tight ORDER
	// BY shape excludes every other keyword: its LIMIT math assumes the
	// result set is exactly the WHERE-surviving scan-order snapshot (no
	// DISTINCT/GROUP BY collapsing).
	// (Not on Postgres: a FROM scan there also returns inherited child
	// rows, which the raw-heap snapshot the position math runs on never
	// sees; Postgres keeps the always-containing LIMIT shape below.)
	if o.cfg.Dialect != dialect.Postgres &&
		len(pivots) == 1 && len(sel.Joins) == 0 && o.rnd.Bool(0.2) &&
		o.exactPositionOrder(sel, pivots[0], plainCols, ctx, eg.Nodes()) {
		return sel, expected
	}
	switch {
	case (o.cfg.Dialect == dialect.Postgres || o.cfg.Dialect == dialect.SQLite) && o.rnd.Bool(0.25):
		// GROUP BY over every result column is containment-preserving —
		// each output tuple is (a representative of) its own group, and
		// rowsEqual-equal tuples are Value.Equal-equal, so the pivot tuple
		// always survives. On Postgres this is the Listing 15 trigger; on
		// SQLite it routes through the hash-aggregation executor and its
		// collation-folding fault site.
		for _, rc := range sel.Cols {
			sel.GroupBy = append(sel.GroupBy, rc.X)
		}
	case o.rnd.Bool(0.3):
		sel.Distinct = true
	}
	if o.rnd.Bool(0.25) {
		rc := sel.Cols[o.rnd.Intn(len(sel.Cols))]
		sel.OrderBy = append(sel.OrderBy, sqlast.OrderItem{X: rc.X, Desc: o.rnd.Bool(0.5)})
		if o.rnd.Bool(0.5) {
			// A LIMIT at least as large as any possible result set never
			// excludes the pivot row.
			sel.Limit = limitAll
		}
	}
	return sel, expected
}

// limitAll is the LIMIT no generated result set reaches, one node shared
// by every query (statements are never mutated).
var limitAll = sqlast.Lit(sqlval.Int(1_000_000))

// exactPositionOrder rewrites a single-table pivot query into the
// position-tight ORDER BY + LIMIT shape: the sort key is one plain result
// column and LIMIT (with an optional OFFSET) is computed so the window's
// last row sits exactly at the pivot's stable-sort position among the
// WHERE-surviving rows — the tightest LIMIT that still keeps containment.
// The surviving set is established client-side by evaluating the (already
// rectified-TRUE) condition on every snapshot row with the independent
// interpreter, in scan order — the order every engine access path
// reproduces (rowid-sorted fetch) and the stable sort preserves across
// ties. This is the only generated shape whose LIMIT can exclude rows, so
// it is what drives the engine's top-K heap; the
// generic.topk-heap-boundary fault additionally needs a later surviving
// row tying the kept boundary row's key, hence the bias toward sort keys
// with ties after the pivot. Reports false when no plain-column key is
// available or a row evaluation errors (the caller falls through to the
// other keyword shapes). LIMIT and OFFSET come from nodes.
func (o *pqsOracle) exactPositionOrder(sel *sqlast.Select, p pivotRow, plainCols []bool, ctx *interp.Context, nodes *sqlast.Arena) bool {
	// keep collects the scan-order indexes of WHERE-surviving rows;
	// pivotPos is the pivot's rank among them.
	keep := make([]int, 0, len(p.Rows))
	pivotPos := -1
	if sel.Where == nil {
		for i := range p.Rows {
			keep = append(keep, i)
		}
		pivotPos = p.rowIdx
	} else {
		defer bindRowValues(ctx, p, p.vals) // restore the pivot bindings
		for i, row := range p.Rows {
			if i == p.rowIdx {
				// Rectified TRUE on the pivot by construction.
				pivotPos = len(keep)
				keep = append(keep, i)
				continue
			}
			bindRowValues(ctx, p, row)
			tb, err := interp.EvalBool(sel.Where, ctx)
			if err != nil {
				return false
			}
			if tb == sqlval.TriTrue {
				keep = append(keep, i)
			}
		}
	}

	var cands, tieCands []int
	for ci := range p.Info.Columns {
		if ci >= len(plainCols) || !plainCols[ci] || ci >= len(p.vals) {
			continue
		}
		cands = append(cands, ci)
		for _, i := range keep[pivotPos+1:] {
			if sqlval.Compare(p.Rows[i][ci], p.vals[ci], sqlval.CollBinary) == 0 {
				tieCands = append(tieCands, ci)
				break
			}
		}
	}
	pick := cands
	if len(tieCands) > 0 && o.rnd.Bool(0.8) {
		pick = tieCands
	}
	if len(pick) == 0 {
		return false
	}
	ci := pick[o.rnd.Intn(len(pick))]
	desc := o.rnd.Bool(0.5)
	// pos is the pivot's 1-based position under the engine's stable sort
	// of the surviving rows: strictly smaller keys, plus key ties at or
	// before the pivot's scan index (sqlval.Compare on CollBinary is
	// exactly the engine's ORDER BY comparator).
	pos := 0
	for ki, i := range keep {
		c := sqlval.Compare(p.Rows[i][ci], p.vals[ci], sqlval.CollBinary)
		if desc {
			c = -c
		}
		if c < 0 || (c == 0 && ki <= pivotPos) {
			pos++
		}
	}
	sel.OrderBy = append(sel.OrderBy, sqlast.OrderItem{X: p.Picks[ci].Ref, Desc: desc})
	off := 0
	if pos > 1 && o.rnd.Bool(0.4) {
		off = o.rnd.Intn(pos)
	}
	sel.Limit = nodes.Lit(sqlval.Int(int64(pos - off)))
	if off > 0 {
		sel.Offset = nodes.Lit(sqlval.Int(int64(off)))
	}
	return true
}

// bindRowValues binds one table's columns in the interpreter context to
// a snapshot row, with the source's column metadata.
func bindRowValues(ctx *interp.Context, p pivotRow, row []sqlval.Value) {
	for ci, col := range p.Info.Columns {
		info := p.Meta[ci]
		if ci < len(row) {
			info.Val = row[ci]
		}
		ctx.Bind(p.Table, col.Name, info)
	}
}

// equiJoinOn builds a `placed.a = joining.b` ON condition that evaluates
// TRUE on the pivot pair, so the pivot combo stays matched and containment
// holds. The placed tables' columns are eg.Cols[:placed] and the joining
// table's eg.Cols[placed:joined]. On SQLite it prefers text pairs that are
// equal only under NOCASE or RTRIM and pins that collation explicitly —
// exactly the keys a collation-blind hash-join key builder mishandles.
// Returns false when no pivot-true equality exists between the placed
// tables and the one being joined. Each candidate's condition is built in
// the generator's arena, where the chosen one stays for the query.
func (o *pqsOracle) equiJoinOn(ctx *interp.Context, eg *gen.ExprGen, placed, joined int) (sqlast.Expr, bool) {
	cols, hints := eg.Cols, eg.Hints
	if len(hints) < len(cols) {
		return nil, false
	}
	cands, variants := o.joinCands[:0], 0
	for i := range cols[:placed] {
		for j := placed; j < joined; j++ {
			c := joinCand{l: i, r: j}
			va, vb := hints[i], hints[j]
			if o.cfg.Dialect == dialect.SQLite &&
				va.Kind() == sqlval.KText && vb.Kind() == sqlval.KText && va.Str() != vb.Str() {
				switch a, b := va.Str(), vb.Str(); {
				case strings.EqualFold(a, b):
					c.coll, c.variant = sqlval.CollNoCase, true
				case strings.TrimRight(a, " ") == strings.TrimRight(b, " "):
					c.coll, c.variant = sqlval.CollRTrim, true
				}
			}
			c.on = c.build(cols, eg.Nodes())
			if tb, err := o.evalBool(c.on, ctx); err != nil || tb != sqlval.TriTrue {
				continue
			}
			cands = append(cands, c)
			if c.variant {
				variants++
			}
		}
	}
	o.joinCands = cands
	if len(cands) == 0 {
		return nil, false
	}
	// Collation-variant keys are the interesting ones; take one when found.
	if variants == 0 {
		return cands[o.rnd.Intn(len(cands))].on, true
	}
	k := o.rnd.Intn(variants)
	for _, c := range cands {
		if c.variant {
			if k == 0 {
				return c.on, true
			}
			k--
		}
	}
	panic("unreachable")
}

// joinCand is one candidate equality of equiJoinOn: eg.Cols[l] = eg.Cols[r],
// the right side under an explicit collation when variant (equal only
// under a non-binary collation), built as on.
type joinCand struct {
	l, r    int
	coll    sqlval.Collation
	variant bool
	on      sqlast.Expr
}

// build returns the candidate's ON condition in new nodes from the arena.
func (c joinCand) build(cols []gen.ColumnPick, nodes *sqlast.Arena) sqlast.Expr {
	var r sqlast.Expr = cols[c.r].Ref
	if c.variant {
		r = nodes.Collate(r, c.coll)
	}
	return nodes.Binary(sqlast.OpEq, cols[c.l].Ref, r)
}

func trueLiteral(d dialect.Dialect) sqlval.Value {
	if d == dialect.Postgres {
		return sqlval.Bool(true)
	}
	return sqlval.Int(1)
}

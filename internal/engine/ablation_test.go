package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// ablationOptions turns each feature name of sut.Ablations into the engine
// option that switches the feature off.
var ablationOptions = map[string]Option{
	"planner":  WithoutPlanner(),
	"compile":  WithoutCompiledEval(),
	"hashjoin": WithoutHashJoin(),
	"hashagg":  WithoutHashAgg(),
}

// ablationVariants returns the feature sets the harness switches off: every
// feature of sut.Ablations alone and every pair of them. It fails the test
// on a feature the harness has no option for, so a new ablation cannot
// silently skip it.
func ablationVariants(t *testing.T) [][]string {
	t.Helper()
	names := sut.Ablations()
	var variants [][]string
	for i, a := range names {
		if ablationOptions[a] == nil {
			t.Fatalf("sut.Ablations names %q, which ablationOptions cannot switch off", a)
		}
		variants = append(variants, []string{a})
		for _, b := range names[i+1:] {
			variants = append(variants, []string{a, b})
		}
	}
	return variants
}

// runQuery returns a canonical string form of a query result (or its
// error) for byte-identical comparison across engines.
func runQuery(e *Engine, sql string) string {
	res, err := e.Exec(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	return renderResult(res)
}

// renderResult renders columns and rows the way runQuery compares them.
func renderResult(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	b.WriteString("\n")
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString("|")
			}
			b.WriteString(v.Literal())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ablationRow is one fixture of the harness: a database built the same way
// on every engine, and the queries run against it.
type ablationRow struct {
	name     string
	dialects []dialect.Dialect
	setup    []string // run on every engine first; each must succeed
	seeds    int64    // >0: one random StateGen database per seed 1..seeds
	queries  []string // handcrafted
	// gen returns generated queries for one database, read off the all-on
	// engine.
	gen func(e *Engine, d dialect.Dialect, seed int64) []string
	// cover names coverage counters of which the all-on engine must hit at
	// least one over the row, or the row never left the baseline path.
	cover []string
	// check runs on the all-on engine after each query, with its result.
	check func(t *testing.T, e *Engine, sql, res string)
}

// runAblationRow runs row r on dialect d against the all-on engine and one
// engine per variant, every engine opened with extra. Each state statement
// and query must render byte-identically (runQuery) on every engine.
// diverged is called for each difference; returning false ends the row
// after the current statement. The result is how often the all-on engine
// hit the row's coverage counters.
func runAblationRow(t *testing.T, r ablationRow, d dialect.Dialect, variants [][]string, extra []Option,
	diverged func(off []string, sql, want, got string) bool) (covered int) {
	t.Helper()
	for seed := int64(1); seed <= max(r.seeds, 1); seed++ {
		on := Open(d, extra...)
		offs := make([]*Engine, len(variants))
		for i, v := range variants {
			opts := slices.Clone(extra)
			for _, name := range v {
				opts = append(opts, ablationOptions[name])
			}
			offs[i] = Open(d, opts...)
		}
		for _, e := range append([]*Engine{on}, offs...) {
			execAll(t, e, r.setup...)
		}
		same := func(sql string) (string, bool) {
			want, keep := runQuery(on, sql), true
			for i, off := range offs {
				if got := runQuery(off, sql); got != want && !diverged(variants[i], sql, want, got) {
					keep = false
				}
			}
			return want, keep
		}
		if r.seeds > 0 {
			keep := true
			sg := &gen.StateGen{Rnd: gen.NewRand(d, seed), E: on, MinRows: 2, MaxRows: 10, MaxTables: 3}
			if err := sg.BuildDatabase(func(st sqlast.Stmt) error {
				if keep {
					_, keep = same(sqlast.SQL(st, d))
				}
				return nil
			}); err != nil {
				t.Fatalf("seed %d: build: %v", seed, err)
			}
			if !keep {
				return covered
			}
		}
		queries := r.queries
		if r.gen != nil {
			queries = append(slices.Clip(queries), r.gen(on, d, seed)...)
		}
		for _, q := range queries {
			res, keep := same(q)
			if !keep {
				return covered
			}
			if r.check != nil {
				r.check(t, on, q, res)
			}
		}
		cov := on.Coverage().Snapshot()
		for _, c := range r.cover {
			covered += cov[c]
		}
	}
	return covered
}

// TestAblationDifferential is the differential oracle for every optimised
// path: each row's queries must return byte-identical results (or error
// text) on the all-on engine and with each feature, and each pair of
// features, switched off. Optimised and baseline paths speak one dialect,
// so unlike cross-DBMS differential testing any difference is a bug.
func TestAblationDifferential(t *testing.T) {
	variants := ablationVariants(t)
	for _, r := range ablationRows() {
		for _, d := range r.dialects {
			t.Run(r.name+"/"+d.String(), func(t *testing.T) {
				t.Parallel()
				covered := runAblationRow(t, r, d, variants, nil, func(off []string, sql, want, got string) bool {
					t.Errorf("%s off diverges on %q:\nall on:\n%s%s off:\n%s", strings.Join(off, "+"), sql, want, strings.Join(off, "+"), got)
					return false
				})
				if len(r.cover) > 0 && covered == 0 {
					t.Errorf("the all-on engine never hit %v: the row tests no optimised path", r.cover)
				}
			})
		}
	}
}

// TestHashVsNestedEquivalence, TestHashAggVsMaterializedEquivalence and
// TestPlannerDifferential run one harness row with only its own feature
// switched off, so one optimised path can be checked (and debugged) alone.
func TestHashVsNestedEquivalence(t *testing.T) { runSingleAblation(t, "joins", "hashjoin") }

func TestHashAggVsMaterializedEquivalence(t *testing.T) {
	runSingleAblation(t, "aggregation", "hashagg")
}

func TestPlannerDifferential(t *testing.T) { runSingleAblation(t, "planner", "planner") }

// runSingleAblation runs the harness row named row on each of its dialects
// against the all-on engine and the engine with feature off.
func runSingleAblation(t *testing.T, row, feature string) {
	i := slices.IndexFunc(ablationRows(), func(r ablationRow) bool { return r.name == row })
	if i < 0 || ablationOptions[feature] == nil {
		t.Fatalf("no harness row %q or ablation %q", row, feature)
	}
	r := ablationRows()[i]
	for _, d := range r.dialects {
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			runAblationRow(t, r, d, [][]string{{feature}}, nil, func(_ []string, sql, want, got string) bool {
				t.Errorf("%s off diverges on %q:\nall on:\n%s%s off:\n%s", feature, sql, want, feature, got)
				return false
			})
		})
	}
}

// TestAblationFaultReach injects each optimised-path fault into every
// engine of the harness: some variant that switches the fault's feature
// off must then diverge from the all-on engine, which proves the harness
// reaches that path with a query shape that can expose it.
func TestAblationFaultReach(t *testing.T) {
	variants := ablationVariants(t)
	for _, g := range []struct {
		feature string
		faults  []faults.Fault
	}{
		{"planner", []faults.Fault{faults.RangeScanBoundary, faults.StaleIndexAfterUpdate, faults.PlannerCollationConfusion}},
		{"hashjoin", []faults.Fault{faults.HashJoinCollation, faults.HashJoinNullKey, faults.HashLeftJoinDrop}},
		{"hashagg", []faults.Fault{faults.HashAggCollation, faults.AggAccumulatorNullSkip, faults.TopKHeapBoundary}},
	} {
		for _, f := range g.faults {
			t.Run(string(f), func(t *testing.T) {
				t.Parallel()
				info, _ := faults.Lookup(f)
				extra := []Option{WithFaults(faults.NewSet(f))}
				for _, r := range ablationRows() {
					if !slices.Contains(r.dialects, info.Dialect) {
						continue
					}
					reached := false
					runAblationRow(t, r, info.Dialect, variants, extra, func(off []string, _, _, _ string) bool {
						reached = reached || slices.Contains(off, g.feature)
						return !reached
					})
					if reached {
						return
					}
				}
				t.Errorf("no variant with %s off diverged", g.feature)
			})
		}
	}
}

// ablationRows returns the harness fixtures, cheapest first.
func ablationRows() []ablationRow {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	all := dialect.All
	return []ablationRow{
		{name: "joins", dialects: all, setup: joinSetup, queries: joinQueries,
			gen: randomQueries(8, 150, randomJoinQuery), cover: []string{"join.hash", "join.index-lookup"}},
		{name: "affinity-join", dialects: []dialect.Dialect{dialect.SQLite, dialect.MySQL},
			setup: []string{
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k TEXT)",
				"INSERT INTO a VALUES (1), (2), (3)",
				"INSERT INTO b VALUES ('1'), ('2'), ('x')",
			},
			queries: []string{"SELECT * FROM a JOIN b ON a.k = b.k"}},
		{name: "arena", dialects: all, setup: append(slices.Clone(joinSetup), joinViewSetup...), queries: arenaQueries,
			check: func(t *testing.T, e *Engine, sql, res string) {
				if strings.HasPrefix(res, "error: ") {
					t.Fatalf("%q is rejected: %s", sql, res)
				}
				assertArenaEmpty(t, e, sql)
			}},
		{name: "aggregation", dialects: all, setup: aggSetup, queries: aggQueries,
			gen: randomQueries(10, 150, randomAggQuery), cover: []string{"dql.group-by-hash", "dql.order-topk"}},
		{name: "compiled", dialects: all, setup: compiledSetup, queries: compiledQueries},
		// A view column keeps the collation of the column or COLLATE item
		// it selects, so 'A' finds 'a' through w and wn as on t0.
		{name: "view-collation", dialects: all,
			setup:   append(slices.Clone(compiledSetup), "CREATE VIEW wn AS SELECT v COLLATE NOCASE AS v FROM t1"),
			queries: []string{"SELECT c1 FROM w WHERE c1 = 'A'", "SELECT v FROM wn WHERE v = 'X'"},
			check: func(t *testing.T, _ *Engine, sql, res string) {
				if strings.Count(res, "\n") != 2 {
					t.Errorf("%s = %q, want one row", sql, res)
				}
			}},
		{name: "index-maintenance", dialects: all, setup: indexSetup, queries: indexQueries,
			cover: []string{"plan.index-eq-lookup", "plan.index-range-scan"}},
		{name: "planner", dialects: all, seeds: seeds, gen: plannerProbes,
			cover: []string{"plan.index-eq-lookup", "plan.index-range-scan", "plan.partial-index-scan"}},
	}
}

// randomQueries draws n queries from f with a fixed source, the same for
// every database.
func randomQueries(src int64, n int, f func(*rand.Rand) string) func(*Engine, dialect.Dialect, int64) []string {
	return func(*Engine, dialect.Dialect, int64) []string {
		rnd := rand.New(rand.NewSource(src))
		qs := make([]string, n)
		for i := range qs {
			qs[i] = f(rnd)
		}
		return qs
	}
}

// joinSetup builds tables with overlapping key domains, duplicate keys,
// NULLs, case/trailing-space text variants and a NOCASE key column — the
// shapes hash-key normalization has to get right.
var joinSetup = []string{
	"CREATE TABLE j0(k INT, s TEXT, v INT)",
	"CREATE TABLE j1(k INT, s TEXT, v INT)",
	"CREATE TABLE j2(k INT, s TEXT)",
	"CREATE TABLE j3(s TEXT COLLATE NOCASE, v INT)",
	"INSERT INTO j0 VALUES (1, 'a', 10), (2, 'B', 20), (2, 'b ', 21), (3, NULL, 30), (NULL, 'c', 40)",
	"INSERT INTO j1 VALUES (1, 'A', 100), (2, 'b', 200), (4, 'd', 400), (NULL, NULL, 500), (2, 'a', 201)",
	"INSERT INTO j2 VALUES (1, 'a'), (3, 'C'), (5, 'e')",
	"INSERT INTO j3 VALUES ('A', 1), ('b', 2), ('C', 3), (NULL, 4)",
}

var joinQueries = []string{
	// Pure equi inner joins, single and multi key.
	"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k",
	"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k AND j0.s = j1.s",
	"SELECT * FROM j0 JOIN j1 ON j1.k = j0.k",
	// Equi keys plus a non-key residual conjunct.
	"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k AND j0.v < j1.v",
	// Explicit joins under a WHERE filter: NULL keys must still never match.
	"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k WHERE j0.v > 0",
	"SELECT * FROM j0 JOIN j1 ON j0.s = j1.s WHERE j1.v > 0",
	// LEFT JOIN: unmatched left rows survive with NULLs, with or without
	// a WHERE filter.
	"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k",
	"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k AND j0.s = j1.s",
	"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k WHERE j1.v IS NULL",
	"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k WHERE j0.v > 0",
	// A NOCASE key column folds case in the hash key.
	"SELECT * FROM j3 JOIN j0 ON j3.s = j0.s",
	"SELECT * FROM j3 LEFT JOIN j1 ON j3.s = j1.s WHERE j3.v > 0",
	// Three-way chains, mixed kinds.
	"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k JOIN j2 ON j1.k = j2.k",
	"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k LEFT JOIN j2 ON j0.k = j2.k",
	"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k LEFT JOIN j2 ON j1.s = j2.s",
	// Implicit cross join with WHERE-derived keys.
	"SELECT * FROM j0, j1 WHERE j0.k = j1.k",
	"SELECT * FROM j0, j1 WHERE j0.k = j1.k AND j0.v < j1.v",
	"SELECT * FROM j0, j1, j2 WHERE j0.k = j1.k AND j1.k = j2.k",
	// Theta-only ON: no keys, nested loop on every engine.
	"SELECT * FROM j0 JOIN j1 ON j0.k < j1.k",
	// Aggregation and DISTINCT over joined rows.
	"SELECT COUNT(*), MIN(j1.v) FROM j0 JOIN j1 ON j0.k = j1.k",
	"SELECT DISTINCT j0.k FROM j0 JOIN j1 ON j0.k = j1.k",
}

// randomJoinQuery generates a two- or three-way join whose ON mixes equi
// keys with residual comparisons, occasionally LEFT, occasionally via an
// implicit cross join plus WHERE, occasionally filtered by a WHERE.
func randomJoinQuery(rnd *rand.Rand) string {
	tables := []string{"j0", "j1", "j2"}
	rnd.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	nway := 2 + rnd.Intn(2)
	cols := func(tbl string) []string {
		if tbl == "j2" {
			return []string{"k", "s"}
		}
		return []string{"k", "s", "v"}
	}
	cond := func(a, b string) string {
		ca := cols(a)[rnd.Intn(len(cols(a)))]
		cb := cols(b)[rnd.Intn(len(cols(b)))]
		op := []string{"=", "=", "=", "<", "<=", "<>"}[rnd.Intn(6)]
		return fmt.Sprintf("%s.%s %s %s.%s", a, ca, op, b, cb)
	}
	onClause := func(a, b string) string {
		c := cond(a, b)
		for rnd.Intn(3) == 0 {
			c += " AND " + cond(a, b)
		}
		return c
	}
	if rnd.Intn(4) == 0 { // implicit cross join + WHERE
		from := strings.Join(tables[:nway], ", ")
		var conds []string
		for i := 1; i < nway; i++ {
			conds = append(conds, onClause(tables[i-1], tables[i]))
		}
		return fmt.Sprintf("SELECT * FROM %s WHERE %s", from, strings.Join(conds, " AND "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT * FROM %s", tables[0])
	for i := 1; i < nway; i++ {
		kind := "JOIN"
		if rnd.Intn(3) == 0 {
			kind = "LEFT JOIN"
		}
		fmt.Fprintf(&b, " %s %s ON %s", kind, tables[i], onClause(tables[i-1], tables[i]))
	}
	if rnd.Intn(3) == 0 {
		fmt.Fprintf(&b, " WHERE %s.k IS NOT NULL", tables[rnd.Intn(nway)])
	}
	return b.String()
}

// joinViewSetup adds a view over a two-table join to joinSetup, so a
// query's FROM clause runs a nested join (and its statement-slab
// mark/release) before the outer join starts.
var joinViewSetup = []string{
	"CREATE VIEW vj AS SELECT j0.k AS k, j0.s AS s, j1.v AS v FROM j0 JOIN j1 ON j0.k = j1.k",
}

// arenaQueries nest views built on joins inside outer joins and UNION ALLs
// of joins, whose combos share the engine's statement slabs LIFO.
var arenaQueries = []string{
	"SELECT * FROM vj",
	"SELECT vj.k, vj.v, j2.s FROM vj LEFT JOIN j2 ON vj.k = j2.k",
	"SELECT vj.k, j1.v, j2.s FROM vj JOIN j1 ON vj.k = j1.k JOIN j2 ON j1.k = j2.k",
	"SELECT a.k, b.v FROM vj AS a, vj AS b WHERE a.v < b.v",
	"SELECT j0.k, j1.v FROM j0 JOIN j1 ON j0.k = j1.k UNION ALL SELECT j1.k, j2.k FROM j1, j2 UNION ALL SELECT vj.k, vj.v FROM vj, j2 WHERE vj.k = j2.k",
	"SELECT vj.k, COUNT(*) FROM vj LEFT JOIN j2 ON vj.k = j2.k GROUP BY vj.k",
}

// aggSetup builds a table whose group keys carry every shape the hash
// normalizer has to get right: NULLs (one group, not one each), case
// variants under an explicit NOCASE column collation, duplicate keys, and
// value columns mixing ints, reals, huge floats, and NULLs.
var aggSetup = []string{
	"CREATE TABLE g0(k INT, s TEXT, n TEXT COLLATE NOCASE, v INT, r REAL)",
	`INSERT INTO g0 VALUES
		(1, 'a', 'x', 10, 0.5),
		(1, 'a', 'X', 20, 1.5),
		(2, 'B', 'y', NULL, 1e308),
		(2, 'b', 'Y', 30, 1e308),
		(NULL, NULL, NULL, 40, -1e308),
		(NULL, 'c', 'z', NULL, NULL),
		(3, 'c', 'z', -5, 2.25)`,
	"CREATE TABLE empty0(k INT, v INT)",
}

// aggQueries pin grouped output order (first-seen key order) and ordered
// output under ORDER BY/LIMIT: top-K must reproduce the full sort's
// stable tie order exactly.
var aggQueries = []string{
	// NULL group keys collapse into one group on both paths.
	"SELECT k, COUNT(*) FROM g0 GROUP BY k",
	"SELECT s, COUNT(*), SUM(v) FROM g0 GROUP BY s",
	// Column collation folds case into one group ('x' and 'X').
	"SELECT n, COUNT(*) FROM g0 GROUP BY n",
	"SELECT n, MIN(v), MAX(v) FROM g0 GROUP BY n",
	// Multi-key grouping, keys of mixed kinds.
	"SELECT k, s, COUNT(*) FROM g0 GROUP BY k, s",
	// Accumulator semantics: NULLs skipped, AVG int/real split,
	// COUNT(*) vs COUNT(col), huge-float SUM overflow behavior.
	"SELECT k, COUNT(v), COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM g0 GROUP BY k",
	"SELECT k, SUM(r), AVG(r) FROM g0 GROUP BY k",
	"SELECT SUM(r) FROM g0",
	// Ungrouped aggregates over empty input: one row of NULL/zero.
	"SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v) FROM empty0",
	// Grouped aggregates over empty input: no rows at all.
	"SELECT k, COUNT(*) FROM empty0 GROUP BY k",
	// HAVING filters groups, including down to none.
	"SELECT k, SUM(v) FROM g0 GROUP BY k HAVING SUM(v) > 25",
	"SELECT k, SUM(v) FROM g0 GROUP BY k HAVING COUNT(*) > 99",
	"SELECT k, COUNT(*) FROM empty0 GROUP BY k HAVING COUNT(*) > 0",
	// Aggregates of expressions and DISTINCT over grouped output.
	"SELECT k, SUM(v + 1) FROM g0 GROUP BY k",
	"SELECT DISTINCT COUNT(*) FROM g0 GROUP BY k",
	// Top-K shapes: ties on the sort key must keep input order (the
	// heap's eviction boundary), OFFSET shifts the window, LIMIT
	// beyond the table degrades to the full sort.
	"SELECT * FROM g0 ORDER BY k LIMIT 3",
	"SELECT * FROM g0 ORDER BY k DESC LIMIT 3",
	"SELECT * FROM g0 ORDER BY k LIMIT 2 OFFSET 2",
	"SELECT * FROM g0 ORDER BY s, v DESC LIMIT 4",
	"SELECT * FROM g0 ORDER BY n LIMIT 5",
	"SELECT * FROM g0 ORDER BY k LIMIT 0",
	"SELECT * FROM g0 ORDER BY k LIMIT 100",
	"SELECT * FROM g0 ORDER BY k LIMIT 2 OFFSET 100",
	"SELECT * FROM empty0 ORDER BY k LIMIT 3",
	// ORDER BY + LIMIT over grouped results.
	"SELECT k, SUM(v) FROM g0 GROUP BY k ORDER BY k LIMIT 2",
	"SELECT s, COUNT(*) FROM g0 GROUP BY s ORDER BY COUNT(*) DESC LIMIT 2",
	// A compound ORDER BY key resolves to the result column that renders
	// the same SQL (a different node: the parser never shares nodes).
	"SELECT v * 2, k FROM g0 ORDER BY v * 2 DESC, k LIMIT 3",
}

// randomAggQuery generates a grouped, ordered, and/or limited query over
// g0 — the shapes whose execution strategy the hash-agg/top-K selection
// changes.
func randomAggQuery(rnd *rand.Rand) string {
	cols := []string{"k", "s", "n", "v", "r"}
	aggs := []string{"COUNT(*)", "COUNT(%s)", "SUM(%s)", "AVG(%s)", "MIN(%s)", "MAX(%s)"}
	col := func() string { return cols[rnd.Intn(len(cols))] }
	agg := func() string {
		a := aggs[rnd.Intn(len(aggs))]
		if strings.Contains(a, "%s") {
			return fmt.Sprintf(a, col())
		}
		return a
	}
	var b strings.Builder
	if rnd.Intn(2) == 0 { // grouped
		nKeys := 1 + rnd.Intn(2)
		keys := make([]string, 0, nKeys)
		for len(keys) < nKeys {
			keys = append(keys, col())
		}
		var proj []string
		proj = append(proj, keys...)
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			proj = append(proj, agg())
		}
		fmt.Fprintf(&b, "SELECT %s FROM g0", strings.Join(proj, ", "))
		if rnd.Intn(3) == 0 {
			fmt.Fprintf(&b, " WHERE %s IS NOT NULL", col())
		}
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(keys, ", "))
		if rnd.Intn(3) == 0 {
			fmt.Fprintf(&b, " HAVING COUNT(*) > %d", rnd.Intn(3))
		}
		if rnd.Intn(2) == 0 {
			fmt.Fprintf(&b, " ORDER BY %s", keys[rnd.Intn(len(keys))])
			if rnd.Intn(2) == 0 {
				b.WriteString(" DESC")
			}
			if rnd.Intn(2) == 0 {
				fmt.Fprintf(&b, " LIMIT %d", rnd.Intn(4))
			}
		}
		return b.String()
	}
	// Plain ordered/limited scan: small k keeps the top-K heap hot and
	// duplicate sort keys exercise its tie handling.
	fmt.Fprintf(&b, "SELECT * FROM g0")
	if rnd.Intn(3) == 0 {
		fmt.Fprintf(&b, " WHERE %s IS NOT NULL", col())
	}
	fmt.Fprintf(&b, " ORDER BY %s", col())
	if rnd.Intn(3) == 0 {
		b.WriteString(" DESC")
	}
	if rnd.Intn(3) > 0 {
		fmt.Fprintf(&b, ", %s", col())
	}
	fmt.Fprintf(&b, " LIMIT %d", 1+rnd.Intn(6))
	if rnd.Intn(3) == 0 {
		fmt.Fprintf(&b, " OFFSET %d", rnd.Intn(4))
	}
	return b.String()
}

// compiledSetup and compiledQueries are tricky shapes for compiled
// evaluation: joins with NULL extension, grouping, HAVING, aggregates over
// expressions, views, CASE, collations, and ambiguous column names.
var compiledSetup = []string{
	"CREATE TABLE t0(c0 INT, c1 TEXT COLLATE NOCASE, c2 REAL)",
	"CREATE TABLE t1(k INT, v TEXT)",
	"INSERT INTO t0 VALUES (1, 'a', 0.5), (2, 'B', NULL), (NULL, 'abc', 2.5), (2, 'b', 1.0)",
	"INSERT INTO t1 VALUES (1, 'x'), (3, NULL)",
	"CREATE VIEW w AS SELECT c0, c1 FROM t0 WHERE c0 IS NOT NULL",
	"CREATE TABLE a(x INT, only_a INT)",
	"CREATE TABLE b(x INT)",
	"INSERT INTO a VALUES (1, 10)",
	"INSERT INTO b VALUES (2)",
}

var compiledQueries = []string{
	"SELECT * FROM t0 WHERE c0 = 2",
	"SELECT c0 + c2, c1 || 'z' FROM t0 WHERE c1 = 'B'",
	"SELECT t0.c0, t1.v FROM t0 LEFT JOIN t1 ON t0.c0 = t1.k",
	"SELECT c0, COUNT(*), SUM(c2) FROM t0 GROUP BY c0",
	"SELECT c1, MAX(c0) FROM t0 GROUP BY c1 HAVING MAX(c0) > 1",
	"SELECT CASE WHEN c0 IS NULL THEN 'n' ELSE c1 END FROM t0",
	"SELECT DISTINCT c1 FROM t0",
	"SELECT * FROM w WHERE c1 LIKE 'A%'",
	"SELECT c0 FROM t0 WHERE c0 BETWEEN 1 AND 2 ORDER BY c0",
	"SELECT c0 FROM t0 WHERE c0 IN (2, NULL, 5)",
	"SELECT c0 FROM t0 WHERE c1 = 'A' COLLATE BINARY",
	"SELECT ABS(c0 - 3) FROM t0 WHERE c0 NOT NULL",
	"SELECT COUNT(c2 * 2) FROM t0",
	"SELECT 1 + 2 * 3",
	"SELECT t0.c0 FROM t0, t1 WHERE t0.c0 = t1.k",
	// Compiled binding and tree-walk lookup report the same errors.
	"SELECT x FROM a, b",
	"SELECT nope FROM a, b",
	"SELECT a.x FROM a, b",
	"SELECT only_a FROM a, b",
}

// indexSetup updates indexed columns after the indexes exist, so index
// access paths read entries UPDATE maintained, next to a text index that
// a collation-qualified equality must not use.
var indexSetup = []string{
	"CREATE TABLE u0(c0 INT, c1 TEXT)",
	"CREATE INDEX iu0 ON u0(c0)",
	"CREATE INDEX iu1 ON u0(c1)",
	"INSERT INTO u0 VALUES (1, 'a'), (2, 'B'), (3, 'c'), (4, 'D'), (5, 'e'), (6, 'f'), (7, 'G'), (8, 'h')",
	"UPDATE u0 SET c0 = c0 + 10 WHERE c0 > 6",
	"UPDATE u0 SET c1 = 'x' WHERE c0 = 2",
}

var indexQueries = []string{
	"SELECT * FROM u0 WHERE c0 = 17",
	"SELECT * FROM u0 WHERE c0 = 7",
	"SELECT * FROM u0 WHERE c0 >= 3 AND c0 <= 5",
	"SELECT * FROM u0 WHERE c0 BETWEEN 16 AND 18",
	"SELECT * FROM u0 WHERE c1 = 'x'",
	"SELECT * FROM u0 WHERE c1 = 'B'",
	"SELECT * FROM u0 WHERE c1 COLLATE NOCASE = 'd'",
}

// plannerProbes returns, for every table of a random database, systematic
// sargable probes over its stored values (and mutations of them, to land
// beside index boundaries) plus 25 generated WHERE clauses.
func plannerProbes(e *Engine, d dialect.Dialect, seed int64) []string {
	ops := []string{"=", "<", "<=", ">", ">="}
	rnd := gen.NewRand(d, seed+1000)
	var qs []string
	for _, table := range e.Tables() {
		info, err := e.Describe(table)
		if err != nil {
			continue
		}
		rows := e.RawRows(table)
		for ci, col := range info.Columns {
			for _, row := range rows[:min(len(rows), 4)] {
				if ci >= len(row) || row[ci].IsNull() {
					continue
				}
				lits := []string{row[ci].Literal()}
				if row[ci].Kind() == sqlval.KText {
					lits = append(lits,
						sqlval.Text(gen.ToggleCase(row[ci].Str())).Literal(),
						sqlval.Text(row[ci].Str()+"  ").Literal())
				}
				for _, lit := range lits {
					for _, op := range ops {
						qs = append(qs, fmt.Sprintf("SELECT * FROM %s WHERE %s %s %s", table, col.Name, op, lit))
					}
					qs = append(qs, fmt.Sprintf("SELECT * FROM %s WHERE %s BETWEEN %s AND %s", table, col.Name, lit, lit))
					if d == dialect.SQLite {
						qs = append(qs,
							fmt.Sprintf("SELECT * FROM %s WHERE %s COLLATE NOCASE = %s", table, col.Name, lit),
							fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE %s >= %s ORDER BY %s", col.Name, table, col.Name, lit, col.Name))
					}
				}
			}
		}
		var cols []gen.ColumnPick
		for _, c := range info.Columns {
			cols = append(cols, gen.ColumnPick{Table: table, Column: c})
		}
		var hints []sqlval.Value
		for _, row := range rows {
			hints = append(hints, row...)
		}
		eg := &gen.ExprGen{Rnd: rnd, Cols: cols, Hints: hints, MaxDepth: 3}
		for i := 0; i < 25; i++ {
			qs = append(qs, fmt.Sprintf("SELECT * FROM %s WHERE %s", table, sqlast.ExprSQL(eg.Generate(), d)))
		}
	}
	return qs
}

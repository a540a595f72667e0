// Package fuzz is the SQLsmith/AFL-style baseline: it generates random
// statements and queries but has no containment oracle — it can observe
// only unexpected errors and crashes. The paper's central claim is that
// such fuzzers cannot find logic bugs; the baseline-comparison benchmark
// measures exactly that against the injected-fault corpus.
package fuzz

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/sqlast"
	"repro/internal/sut"
)

// Config parameterizes a fuzzing session. The embedded Session is what
// every database opens with (dialect, faults, storage, wire fidelity,
// switched-off engine features).
type Config struct {
	sut.Session
	Seed         int64
	QueriesPerDB int
	// Backend names the sut driver ("" = sut.DefaultBackend).
	Backend string
}

// Fuzzer drives random statements at the engine and watches for crashes
// and never-expected errors.
type Fuzzer struct {
	cfg   Config
	rnd   *gen.Rand
	stats core.Stats
	// sg is the state generator, reset per database; eg and cols are
	// randomQuery's generator and column pool, reset for each query. A
	// generated statement lives until its generator's next reset, and a
	// detection renders its trace at once.
	sg   gen.StateGen
	eg   gen.ExprGen
	cols []gen.ColumnPick
}

// New creates a fuzzer.
func New(cfg Config) *Fuzzer {
	if cfg.QueriesPerDB <= 0 {
		cfg.QueriesPerDB = 30
	}
	return &Fuzzer{
		cfg: cfg,
		rnd: gen.NewRand(cfg.Dialect, cfg.Seed),
	}
}

// Stats exposes work counters.
func (f *Fuzzer) Stats() core.Stats { return f.stats }

// RunDatabase runs one database lifecycle. Detections carry the same Bug
// shape as PQS, but the Oracle is always error or segfault — never
// containment.
func (f *Fuzzer) RunDatabase() (*core.Bug, error) {
	db, err := sut.Open(f.cfg.Backend, f.cfg.Session)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	f.stats.Databases++
	// Like core's trace type, statements are kept as ASTs and rendered
	// only when a detection needs a reproduction trace.
	var trace []sqlast.Stmt
	renderTrace := func() []string { return core.RenderStmts(trace, f.cfg.Dialect) }

	apply := func(st sqlast.Stmt) error {
		trace = append(trace, st)
		f.stats.Statements++
		_, err := db.ExecAST(st)
		bug, v := oracle.ErrorReport(st, err, f.cfg.Dialect, "fuzz")
		if bug != nil {
			bug.Trace = renderTrace()
			return &fuzzSignal{bug: bug}
		}
		if v == oracle.VerdictArtifact {
			f.stats.Artifacts++
		}
		return nil
	}

	sg := &f.sg
	sg.Reset(f.rnd, db.Introspect(), nil)
	if err := sg.BuildDatabase(apply); err != nil {
		if sig, ok := err.(*fuzzSignal); ok {
			return sig.bug, nil
		}
		return nil, err
	}

	// Random queries with arbitrary (unrectified) conditions: result sets
	// are never validated — the fuzzer has no idea what they should be.
	for q := 0; q < f.cfg.QueriesPerDB; q++ {
		sel := f.randomQuery(db.Introspect(), sg)
		if sel == nil {
			continue
		}
		if err := apply(sel); err != nil {
			if sig, ok := err.(*fuzzSignal); ok {
				return sig.bug, nil
			}
			return nil, err
		}
		// Drop successful queries from the trace like PQS does.
		trace = trace[:len(trace)-1]
		f.stats.Queries++
	}
	return nil, nil
}

type fuzzSignal struct{ bug *core.Bug }

// Error implements the error interface.
func (s *fuzzSignal) Error() string { return "fuzz detection: " + s.bug.Message }

func (f *Fuzzer) randomQuery(intro sut.Introspection, sg *gen.StateGen) sqlast.Stmt {
	tables := intro.Tables()
	if len(tables) == 0 {
		return nil
	}
	table := tables[f.rnd.Intn(len(tables))]
	info, err := intro.Describe(table)
	if err != nil || len(info.Columns) == 0 {
		return nil
	}
	cols := f.cols[:0]
	for _, c := range info.Columns {
		cols = append(cols, gen.ColumnPick{Table: table, Column: c})
	}
	f.cols = cols
	eg := &f.eg
	eg.Reset(f.rnd, cols, sg.Hints, 3)
	// Occasionally issue a compound SELECT: fuzzing covers UNION [ALL]
	// execution the same way the TLP oracle's recombination does.
	if f.rnd.Bool(0.15) {
		return gen.CompoundSelect(f.rnd, eg, table, info)
	}
	sel := &sqlast.Select{
		Cols:     []sqlast.ResultCol{{Star: true}},
		From:     []sqlast.TableRef{{Name: table}},
		Distinct: f.rnd.Bool(0.3),
	}
	if f.rnd.Bool(0.8) {
		sel.Where = eg.Generate()
	}
	// Ordered/limited shapes route through the top-K heap (small k) or the
	// full sort; the fuzzer never validates result sets, so position
	// semantics cost it nothing and buy executor coverage.
	if f.rnd.Bool(0.35) {
		gen.OrderLimit(f.rnd, table, info, sel)
	}
	return sel
}

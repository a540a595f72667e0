package oracle

import (
	"sort"
	"sync"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
	"repro/internal/xerr"
)

// Oracle is one pluggable testing oracle: given an open database under
// test, generate a check (a query or a metamorphic query pair), run it
// through the SUT boundary, and report a detection or a clean pass
// (nil, nil). Implementations keep no state between checks beyond the
// randomness the Env supplies and memory they reuse, so one instance may
// serve many databases, one check at a time.
type Oracle interface {
	// Name is the registry name ("pqs", "norec", "tlp").
	Name() string
	// Check runs one oracle iteration against db. A nil Report means the
	// check passed (or was discarded as unevaluable); a non-nil Report is
	// a detection.
	Check(db sut.DB, env *Env) (*Report, error)
}

// Env is the per-lifecycle context a check runs within: the campaign's
// random source, the dialect, generator hints, and a lazy renderer for the
// statements that built the database (the reproduction-trace prefix).
type Env struct {
	Dialect dialect.Dialect
	Rnd     *gen.Rand
	// Hints biases generated constants toward stored values (the same pool
	// gen.StateGen accumulates while building the database).
	Hints []sqlval.Value
	// MaxExprDepth bounds generated predicates (0 = default 3).
	MaxExprDepth int
	// Setup renders the statement sequence that built the database; nil
	// means no setup prefix (one-shot checks against a live shell).
	Setup func() []string
	// RecordStmt is called once per statement a check executes, so the
	// campaign's throughput counters stay truthful. May be nil.
	RecordStmt func()
	// Targets is the database's check-target snapshot for the oracles
	// whose query phase runs only SELECTs (PQS, TLP, NoREC), which share
	// it; a campaign Resets it once per database. nil makes such an
	// oracle capture the database at every check (one-shot checks against
	// a live shell, where any statement may run between checks). Oracles
	// that write (serializability, recovery) never read it.
	Targets *Targets
}

// Depth returns the effective expression depth bound.
func (e *Env) Depth() int {
	if e.MaxExprDepth <= 0 {
		return 3
	}
	return e.MaxExprDepth
}

// SetupTrace renders the database-construction prefix (nil-safe).
func (e *Env) SetupTrace() []string {
	if e.Setup == nil {
		return nil
	}
	return e.Setup()
}

// Record notes one executed statement (nil-safe).
func (e *Env) Record() {
	if e.RecordStmt != nil {
		e.RecordStmt()
	}
}

// Options parameterize oracle construction.
type Options struct {
	// MaxExprDepth bounds generated predicates (0 = default).
	MaxExprDepth int
	// Sessions fixes the serializability oracle's concurrent-session count
	// per history (0 = seed-derived 2 or 3). Other oracles ignore it.
	Sessions int
}

// Factory builds one oracle instance.
type Factory func(Options) Oracle

var (
	registryMu sync.RWMutex
	factories  = map[string]Factory{}
)

// Register makes an oracle available under the given name, in the style of
// sut.Register: oracles register themselves from an init function (PQS
// registers from internal/core, whose pivot machinery it wraps; the
// metamorphic oracles register from this package). It panics on a
// duplicate or empty name.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("oracle: Register with empty name or nil factory")
	}
	if _, dup := factories[name]; dup {
		panic("oracle: Register called twice for oracle " + name)
	}
	factories[name] = f
}

// Names lists registered oracle names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New constructs the named oracle.
func New(name string, o Options) (Oracle, error) {
	registryMu.RLock()
	f, ok := factories[name]
	registryMu.RUnlock()
	if !ok {
		return nil, xerr.New(xerr.CodeUnsupported,
			"oracle: unknown oracle %q (registered: %v); missing blank import of the registering package?", name, Names())
	}
	return f(o), nil
}

// ForFault maps a fault's expected-oracle registry label onto the testing
// oracle that hunts it: metamorphic faults route to NoREC/TLP campaigns,
// everything else to PQS (whose error and crash oracles run in every
// campaign's build phase anyway).
func ForFault(info faults.Info) string {
	switch info.Oracle {
	case faults.OracleTLP:
		return "tlp"
	case faults.OracleNoREC:
		return "norec"
	case faults.OracleRecovery:
		return "recovery"
	case faults.OracleSerializability:
		return "serializability"
	default:
		return "pqs"
	}
}

// ExecCheck runs one check statement through the SUT boundary, counting
// it with env.Record, and applies the shared error/crash oracle to its
// outcome. A nil Result means the statement failed: the Report is the
// detection, traced as the setup prefix plus the statement, or nil when
// the error was expected or an artifact and the check should be
// discarded.
func ExecCheck(db sut.DB, env *Env, st sqlast.Stmt, by string) (*sut.Result, *Report) {
	env.Record()
	res, err := db.ExecAST(st)
	if err == nil {
		return res, nil
	}
	rep, _ := ErrorReport(st, err, env.Dialect, by)
	if rep != nil {
		rep.Trace = append(env.SetupTrace(), sqlast.SQL(st, env.Dialect))
	}
	return nil, rep
}

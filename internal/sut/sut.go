// Package sut defines the system-under-test boundary: the DB interface the
// whole tester stack (core, runner, fuzz, diffdb, reduce) is written
// against, plus a named-driver registry in the style of database/sql.
//
// The paper's tool is architected against *any* DBMS behind a driver
// boundary; this package is that boundary for the reproduction. Backends
// register themselves under a name (usually from an init function) and
// callers open sessions without knowing the concrete type:
//
//	import _ "repro/internal/sut/memengine"
//
//	db, err := sut.Open("memengine", sut.Session{Dialect: dialect.SQLite})
//
// Two backends ship in-tree: sut/memengine drives the embedded engine
// directly (with an ExecAST fast path that skips the render→reparse round
// trip in campaign hot loops), and sut/wire reaches the same engine
// strictly through the database/sql facade, exercising the string protocol
// end to end. The shared conformance suite (conformance_test.go) runs an
// identical script against both and asserts identical behaviour.
package sut

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// Result is the outcome of one statement at the SUT boundary. Its layout
// deliberately mirrors engine.Result so in-process backends can convert
// without copying rows.
//
// Ownership: Rows may live in memory the backend reuses. They stay valid
// until the next statement on the same DB, from any of its sessions. A
// caller that keeps rows while it runs another statement copies them
// first (CloneRows); consuming a result before the next statement needs
// no copy. The same holds for the Result itself: a backend may return one
// header per DB or Conn and overwrite it with every statement there, so a
// caller that needs RowsAffected, Columns or len(Rows) after another
// statement reads them first.
type Result struct {
	Columns      []string
	Rows         [][]sqlval.Value
	RowsAffected int
}

// CloneRows copies result rows into memory the caller owns, so they
// outlive the next statement (see Result).
func CloneRows(rows [][]sqlval.Value) [][]sqlval.Value {
	if rows == nil {
		return nil
	}
	var c RowsCopy
	return c.Clone(rows)
}

// RowsCopy is CloneRows with memory reused from one copy to the next: a
// caller that keeps one result across a statement per check keeps one
// RowsCopy.
type RowsCopy struct {
	vals []sqlval.Value
	rows [][]sqlval.Value
}

// Clone copies rows into c, overwriting (and invalidating) its previous
// copy, and returns the copy.
func (c *RowsCopy) Clone(rows [][]sqlval.Value) [][]sqlval.Value {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	vals := slices.Grow(c.vals[:0], n)
	out := slices.Grow(c.rows[:0], len(rows))
	for _, row := range rows {
		start := len(vals)
		vals = append(vals, row...)
		out = append(out, vals[start:len(vals):len(vals)])
	}
	c.vals, c.rows = vals, out
	return out
}

// Session carries the per-connection options a backend needs to open one
// database under test. It is the analogue of a DSN, but typed: campaign
// code fills in a Session and the same struct drives every backend, and
// Session.DSN / ParseDSN convert between the two. The four No* switches
// are named by the ablation table Disable and Disabled read.
type Session struct {
	// Dialect selects the dialect profile of the database under test.
	Dialect dialect.Dialect
	// Faults is the injected-bug set (nil = sound engine).
	Faults *faults.Set
	// NoPlanner forces full table scans (the scan-vs-index differential
	// baseline; engine.WithoutPlanner).
	NoPlanner bool
	// NoCompile disables compiled expression programs: every clause
	// evaluates through the tree-walk interpreter (the compiled-vs-
	// interpreted differential baseline; engine.WithoutCompiledEval).
	NoCompile bool
	// NoHashJoin pins every join level to the nested-loop operator (the
	// hash-vs-nested differential baseline; engine.WithoutHashJoin).
	NoHashJoin bool
	// NoHashAgg forces materialized grouping and full sorts — no hash
	// aggregation, no top-K ORDER BY/LIMIT (the hash-agg differential
	// baseline; engine.WithoutHashAgg).
	NoHashAgg bool
	// WireFidelity makes ExecAST render the statement to SQL and reparse
	// it before executing — today's string round trip, kept as an opt-in
	// for parser coverage. The default is the direct-AST fast path where
	// the backend supports one. Backends that are inherently string-based
	// (sut/wire) always have wire fidelity.
	WireFidelity bool
	// Storage selects the storage backend of the database under test:
	// "" or "memory" for the default in-memory heap, "pager" for the
	// durable page-file + WAL backend with simulated-crash support (the
	// recovery-equivalence oracle requires it). Backends that do not
	// implement a storage mode reject unknown values with
	// xerr.CodeUnsupported.
	Storage string
}

// DB is one open database under test. Implementations serialize
// statements internally (like SQLite in its default mode); a DB is safe
// for concurrent use unless the backend documents otherwise.
type DB interface {
	// Exec runs one or more ';'-separated statements and returns the last
	// statement's result. Backends running over a narrow client protocol
	// (database/sql) may not return result rows from Exec — use Query for
	// result sets.
	Exec(sql string) (*Result, error)
	// Query executes sql through the backend's result-returning path and
	// returns any rows. Only result-returning statements (SELECT,
	// compound query, EXPLAIN) are guaranteed portable across backends;
	// in-process backends also accept DDL/DML here (shells rely on
	// that), but protocol backends may not report rows affected.
	Query(sql string) (*Result, error)
	// ExecAST executes one already-generated statement. In-process
	// backends execute the AST directly unless the session asked for
	// wire fidelity; protocol backends render and ship the SQL string.
	ExecAST(st sqlast.Stmt) (*Result, error)
	// Plan reports the access path chosen for each FROM source of a
	// SELECT, in EXPLAIN QUERY PLAN detail form.
	Plan(sql string) ([]string, error)
	// Introspect exposes the schema/ground-truth surface PQS needs for
	// pivot selection (sqlite_master / information_schema analogue).
	Introspect() Introspection
	// Session reports the options this DB was opened with.
	Session() Session
	// Close releases the database.
	Close() error
}

// Conn is one extra client session of a DB, for multi-session interleaved
// histories. Each session auto-commits until it executes BEGIN; its
// transaction stages effects invisibly to the DB's other sessions until
// COMMIT. Sessions share the DB's statement serialization — a Conn is not
// a separate lock domain, just a separate transaction scope.
type Conn interface {
	// Exec runs one or more ';'-separated statements on this session.
	Exec(sql string) (*Result, error)
	// ExecAST executes one already-generated statement on this session,
	// honouring the DB's wire-fidelity setting.
	ExecAST(st sqlast.Stmt) (*Result, error)
	// Close rolls back the session's open transaction, if any, and
	// releases the session. A backend may hand a closed session out
	// again, so a closed Conn must not be used again.
	Close() error
}

// MultiSession is the capability interface of backends that can open
// additional concurrent sessions on one database. The serializability
// oracle requires it; backends whose client protocol pins one session per
// database (sut/wire opens a fresh database per driver connection) simply
// don't implement it, and capability checks fail with CodeUnsupported —
// the same structural-assertion pattern the recovery oracle uses for
// crash support.
type MultiSession interface {
	// NewConn opens an additional session sharing this DB's committed
	// state.
	NewConn() (Conn, error)
}

// Introspection is the read-only catalog surface of a DB: what the tester
// may consult about schema and stored rows without going through the
// (possibly buggy) query path.
//
// Results are shared and read-only: the slices Tables and Describe return
// (and a TableInfo's Columns) may be the backend's cached schema facts,
// handed to every caller until the next schema change. A caller never
// edits them in place; one that needs a changed list copies it first.
type Introspection interface {
	// Tables lists base table names.
	Tables() []string
	// Views lists view names.
	Views() []string
	// Describe returns one table's introspection record.
	Describe(name string) (schema.TableInfo, error)
	// Indexes lists index names on a table.
	Indexes(table string) []string
	// RawRows returns a copy of a table's stored rows, bypassing the
	// query path (ground truth for pivot-row selection, step 2 of the
	// paper).
	RawRows(table string) [][]sqlval.Value
	// RowCount reports a table's live row count (0 for unknown tables).
	RowCount(table string) int
	// CaseSensitiveLike reports the session's LIKE case sensitivity.
	CaseSensitiveLike() bool
	// Corrupted reports whether the database is marked corrupt and why.
	Corrupted() (bool, string)
}

// Driver opens databases for one backend.
type Driver interface {
	Open(s Session) (DB, error)
}

var (
	driversMu sync.RWMutex
	drivers   = map[string]Driver{}
)

// Register makes a backend available under the given name. It panics on a
// duplicate or empty name, like sql.Register.
func Register(name string, d Driver) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if name == "" || d == nil {
		panic("sut: Register with empty name or nil driver")
	}
	if _, dup := drivers[name]; dup {
		panic("sut: Register called twice for driver " + name)
	}
	drivers[name] = d
}

// Drivers lists registered backend names, sorted.
func Drivers() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	out := make([]string, 0, len(drivers))
	for name := range drivers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultBackend is the backend campaigns use when none is configured.
const DefaultBackend = "memengine"

// Open opens a database under test on the named backend. An empty name
// selects DefaultBackend.
func Open(name string, s Session) (DB, error) {
	if name == "" {
		name = DefaultBackend
	}
	driversMu.RLock()
	d, ok := drivers[name]
	driversMu.RUnlock()
	if !ok {
		return nil, xerr.New(xerr.CodeUnsupported,
			"sut: unknown backend %q (registered: %v); missing blank import of the backend package?", name, Drivers())
	}
	return d.Open(s)
}

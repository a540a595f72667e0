// Package memengine is the in-process SUT backend: it drives the embedded
// engine substrate directly. Its ExecAST fast path hands generated ASTs
// straight to the executor, skipping the render→reparse round trip that
// dominates small-database campaign hot loops; Session.WireFidelity
// restores the string round trip as an opt-in for parser coverage.
//
// Importing this package (usually blank) registers the "memengine"
// backend with the sut registry.
package memengine

import (
	"os"

	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	"repro/internal/xerr"
)

func init() {
	sut.Register("memengine", driverImpl{})
}

type driverImpl struct{}

// Open implements sut.Driver.
func (driverImpl) Open(s sut.Session) (sut.DB, error) { return Open(s) }

// Open opens an engine configured by s — the one place a Session becomes
// engine options. Session.Storage "pager" opens the durable page-file +
// WAL backend in a private temp directory over a crash-simulating VFS;
// Close removes the directory.
func Open(s sut.Session) (*DB, error) {
	var opts []engine.Option
	if s.Faults != nil {
		opts = append(opts, engine.WithFaults(s.Faults))
	}
	for _, o := range []struct {
		off bool
		opt engine.Option
	}{
		{s.NoPlanner, engine.WithoutPlanner()},
		{s.NoCompile, engine.WithoutCompiledEval()},
		{s.NoHashJoin, engine.WithoutHashJoin()},
		{s.NoHashAgg, engine.WithoutHashAgg()},
	} {
		if o.off {
			opts = append(opts, o.opt)
		}
	}
	switch s.Storage {
	case "", "memory":
		return Wrap(engine.Open(s.Dialect, opts...), s), nil
	case "pager":
		dir, err := os.MkdirTemp("", "pager-")
		if err != nil {
			return nil, xerr.New(xerr.CodeIO, "memengine: temp dir: %v", err)
		}
		e, err := engine.OpenDurable(s.Dialect, pager.NewSim(pager.OS()), dir, opts...)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		db := Wrap(e, s)
		db.ownDir = dir
		return db, nil
	default:
		return nil, xerr.New(xerr.CodeUnsupported, "memengine: unknown storage %q (want memory or pager)", s.Storage)
	}
}

// DB adapts one *engine.Engine to sut.DB.
type DB struct {
	e    *engine.Engine
	sess sut.Session
	// res is the result every statement on the default session returns
	// (see sut.Result: valid until the next statement).
	res sut.Result
	// ownDir is the temp directory holding a durable database's files;
	// Close removes it so campaigns leave no artifacts behind.
	ownDir string
	// freeConns holds closed sessions for NewConn to hand out again.
	freeConns []*conn
}

// Wrap adapts a caller-constructed engine (white-box tests, coverage
// harnesses) into a sut.DB. The session's Dialect and Faults fields are
// overwritten from the engine so those two cannot disagree; the caller
// is responsible for passing a session whose remaining fields (e.g.
// NoPlanner) match how the engine was opened.
func Wrap(e *engine.Engine, sess sut.Session) *DB {
	sess.Dialect = e.Dialect()
	sess.Faults = e.Faults()
	return &DB{e: e, sess: sess}
}

// Underlying exposes the wrapped engine for white-box assertions
// (coverage counters, planner internals). Tester-stack code must not use
// it — the boundary exists so backends stay swappable.
func (d *DB) Underlying() *engine.Engine { return d.e }

// Exec implements sut.DB.
func (d *DB) Exec(sql string) (*sut.Result, error) {
	return d.result(d.e.Exec(sql))
}

// Query implements sut.DB.
func (d *DB) Query(sql string) (*sut.Result, error) {
	return d.result(d.e.Query(sql))
}

// ExecAST implements sut.DB: the campaign fast path. Under wire fidelity
// the statement is rendered and reparsed, reproducing exactly what a
// string-protocol client would execute.
func (d *DB) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	if d.sess.WireFidelity {
		return d.result(d.e.Exec(sqlast.SQL(st, d.sess.Dialect)))
	}
	return d.result(d.e.ExecStmt(st))
}

// NewConn implements sut.MultiSession: an additional engine session
// sharing the committed state, with its own transaction scope. The
// serializability oracle interleaves statements across several of these.
// A session closed earlier is handed out again, so a closed session must
// not be used again.
func (d *DB) NewConn() (sut.Conn, error) {
	var c *conn
	if n := len(d.freeConns); n > 0 {
		c = d.freeConns[n-1]
		d.freeConns = d.freeConns[:n-1]
	} else {
		c = &conn{}
	}
	c.c, c.db = d.e.NewConn(), d
	return c, nil
}

// conn adapts one engine.Conn to sut.Conn.
type conn struct {
	c  *engine.Conn
	db *DB
	// res is the result every statement on this session returns.
	res sut.Result
}

// Exec implements sut.Conn.
func (c *conn) Exec(sql string) (*sut.Result, error) {
	return c.result(c.c.Exec(sql))
}

// ExecAST implements sut.Conn, honouring the session's wire fidelity like
// DB.ExecAST.
func (c *conn) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	if c.db.sess.WireFidelity {
		return c.result(c.c.Exec(sqlast.SQL(st, c.db.sess.Dialect)))
	}
	return c.result(c.c.ExecStmt(st))
}

// Close implements sut.Conn: rolls back the session's open transaction
// and puts the session, zeroed, on its DB's free list.
func (c *conn) Close() error {
	db := c.db
	if db == nil {
		return nil // already closed
	}
	err := c.c.Close()
	*c = conn{}
	db.freeConns = append(db.freeConns, c)
	return err
}

// Reset implements sut.Resetter: the engine rewinds to the pristine state
// of a fresh Open without reallocating its long-lived structures, so
// pooled campaign lifecycles reuse one engine across databases.
func (d *DB) Reset() error {
	d.e.Reset()
	return nil
}

// Snapshot captures the engine's data state copy-on-write (dbshell's
// .snapshot meta command; valid until the next schema change).
func (d *DB) Snapshot() *engine.Snapshot { return d.e.Snapshot() }

// RestoreSnapshot rewinds the engine's data to a snapshot taken from it.
func (d *DB) RestoreSnapshot(s *engine.Snapshot) error { return d.e.Restore(s) }

// DiffSnapshot compares a snapshot taken from this database with its
// live data as row multisets and names the first table that differs
// (engine.Engine.Diff).
func (d *DB) DiffSnapshot(s *engine.Snapshot) (table string, captured bool) { return d.e.Diff(s) }

// Plan implements sut.DB.
func (d *DB) Plan(sql string) ([]string, error) {
	paths, err := d.e.PlanSQL(sql)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.Detail()
	}
	return out, nil
}

// Introspect implements sut.DB; *engine.Engine satisfies the full
// introspection surface itself.
func (d *DB) Introspect() sut.Introspection { return d.e }

// Session implements sut.DB.
func (d *DB) Session() sut.Session { return d.sess }

// Close implements sut.DB. In-memory engines are garbage-collected
// state; durable engines close their pager and remove their private temp
// directory — even a failed campaign leaves no files behind.
func (d *DB) Close() error {
	err := d.e.Close()
	if d.ownDir != "" {
		if rerr := os.RemoveAll(d.ownDir); err == nil {
			err = rerr
		}
		d.ownDir = ""
	}
	return err
}

// Durable reports whether this database persists through the pager
// backend (Session.Storage "pager").
func (d *DB) Durable() bool { return d.e.Durable() }

// ArmCrash schedules a simulated power cut inside the next durable
// commit. False when the database is not durable.
func (d *DB) ArmCrash(plan pager.CrashPlan) bool { return d.e.ArmCrash(plan) }

// DisarmCrash cancels an armed crash that has not fired.
func (d *DB) DisarmCrash() { d.e.DisarmCrash() }

// CrashRecover simulates a power cut per the plan and reopens the
// database from the surviving files (see engine.CrashRecover).
func (d *DB) CrashRecover(plan pager.CrashPlan) error { return d.e.CrashRecover(plan) }

// PagerStats exposes the pager's work counters (dbshell's .storage meta
// command); ok is false for in-memory databases.
func (d *DB) PagerStats() (pager.Stats, bool) { return d.e.PagerStats() }

// fill overwrites a session's result header out with an engine outcome:
// one sut.Result serves every statement of a DB or Conn.
func fill(out *sut.Result, res *engine.Result, err error) (*sut.Result, error) {
	if err != nil {
		return nil, err
	}
	*out = sut.Result{}
	if res != nil {
		*out = sut.Result{Columns: res.Columns, Rows: res.Rows, RowsAffected: res.RowsAffected}
	}
	return out, nil
}

func (d *DB) result(res *engine.Result, err error) (*sut.Result, error) {
	return fill(&d.res, res, err)
}

func (c *conn) result(res *engine.Result, err error) (*sut.Result, error) {
	return fill(&c.res, res, err)
}

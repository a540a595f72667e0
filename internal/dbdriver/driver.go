// Package dbdriver exposes the engine substrate through database/sql, so
// example code reads like ordinary Go database code. The DSN is
// sut.Session's (see Session.DSN): the dialect profile and, optionally,
// injected faults, switched-off engine features (sut.Ablations), and the
// storage mode:
//
//	db, _ := sql.Open("pqs", "sqlite")
//	db, _ := sql.Open("pqs", "mysql?fault=mysql.double-negation,mysql.set-option-error")
//	db, _ := sql.Open("pqs", "sqlite?disable=planner,compile")
//	db, _ := sql.Open("pqs", "sqlite?storage=pager")
//
// storage=pager opens the connection on the durable page-file + WAL
// backend in a private temp directory (removed when the connection
// closes) instead of the default in-memory heap.
//
// Repeated fault= parameters merge into one set. The driver supports
// plain statements only (no placeholders). Transactions are real:
// db.Begin() opens a snapshot-isolated engine transaction, Commit makes
// its writes visible (and durable, under storage=pager) with
// first-committer-wins conflict detection, and Rollback discards them.
package dbdriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"reflect"

	"repro/internal/engine"
	"repro/internal/sqlval"
	"repro/internal/sut"
	"repro/internal/sut/memengine"
)

func init() {
	sql.Register("pqs", &Driver{})
}

// Driver implements driver.Driver for the engine substrate.
type Driver struct{}

// Open parses the DSN and opens a fresh database through memengine.
func (*Driver) Open(dsn string) (driver.Conn, error) {
	s, err := sut.ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	db, err := memengine.Open(s)
	if err != nil {
		return nil, err
	}
	return &conn{db: db, e: db.Underlying()}, nil
}

type conn struct {
	db *memengine.DB
	e  *engine.Engine // db's engine
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, query: query}, nil
}

// Close implements driver.Conn: durable connections close their pager
// and remove their private database directory.
func (c *conn) Close() error { return c.db.Close() }

// Begin implements driver.Conn with a real transaction: the engine's
// session executes BEGIN, and the returned Tx's Commit/Rollback execute
// COMMIT/ROLLBACK. Statements run through database/sql's Tx between the
// two stage against the transaction's private snapshot and become visible
// (and durable, under storage=pager) only at Commit.
func (c *conn) Begin() (driver.Tx, error) {
	if _, err := c.e.Exec("BEGIN"); err != nil {
		return nil, err
	}
	return tx{c: c}, nil
}

type tx struct{ c *conn }

// Commit implements driver.Tx. It fails with a conflict error when a
// concurrent commit invalidated the transaction's snapshot
// (first-committer-wins); the transaction is then already rolled back.
func (t tx) Commit() error {
	_, err := t.c.e.Exec("COMMIT")
	return err
}

// Rollback implements driver.Tx.
func (t tx) Rollback() error {
	_, err := t.c.e.Exec("ROLLBACK")
	return err
}

// Engine exposes the underlying engine for white-box assertions in tests.
func (c *conn) Engine() *engine.Engine { return c.e }

var (
	_ driver.QueryerContext = (*conn)(nil)
	_ driver.ExecerContext  = (*conn)(nil)
)

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(_ context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("pqs driver: placeholders are not supported")
	}
	res, err := c.e.Exec(query)
	if err != nil {
		return nil, err
	}
	return execResult{affected: int64(res.RowsAffected)}, nil
}

// QueryContext implements driver.QueryerContext.
func (c *conn) QueryContext(_ context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("pqs driver: placeholders are not supported")
	}
	res, err := c.e.Exec(query)
	if err != nil {
		return nil, err
	}
	// database/sql iterates rows lazily, and the connection may run other
	// statements meanwhile: copy them out of engine memory (engine.Result).
	return &rows{columns: res.Columns, rows: sut.CloneRows(res.Rows)}, nil
}

type stmt struct {
	c     *conn
	query string
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt; placeholders are unsupported.
func (s *stmt) NumInput() int { return 0 }

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.c.ExecContext(context.Background(), s.query, nil)
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.QueryContext(context.Background(), s.query, nil)
}

type execResult struct{ affected int64 }

// LastInsertId implements driver.Result.
func (execResult) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("pqs driver: LastInsertId is not supported")
}

// RowsAffected implements driver.Result.
func (r execResult) RowsAffected() (int64, error) { return r.affected, nil }

type rows struct {
	columns []string
	rows    [][]sqlval.Value
	pos     int
}

var _ driver.RowsColumnTypeScanType = (*rows)(nil)

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.columns }

// ColumnTypeScanType implements driver.RowsColumnTypeScanType. The engine
// is dynamically typed per value, so the type is inferred from the
// column's non-NULL values; a column whose rows disagree on kind (legal
// in the SQLite profile, and unsigned overflow demotes to text) reports
// interface{} so ScanType-allocated destinations never fail mid-scan.
func (r *rows) ColumnTypeScanType(index int) reflect.Type {
	var found reflect.Type
	for _, row := range r.rows {
		if index >= len(row) {
			break
		}
		t := scanTypeOf(row[index])
		if t == nil {
			continue // NULL: compatible with any scan type
		}
		if found == nil {
			found = t
			continue
		}
		if found != t {
			return reflect.TypeOf((*interface{})(nil)).Elem()
		}
	}
	if found != nil {
		return found
	}
	return reflect.TypeOf((*interface{})(nil)).Elem()
}

// scanTypeOf mirrors toDriverValue's mapping (nil for NULL).
func scanTypeOf(v sqlval.Value) reflect.Type {
	switch v.Kind() {
	case sqlval.KInt:
		return reflect.TypeOf(int64(0))
	case sqlval.KUint:
		if v.Uint64() <= 1<<63-1 {
			return reflect.TypeOf(int64(0))
		}
		return reflect.TypeOf("")
	case sqlval.KReal:
		return reflect.TypeOf(float64(0))
	case sqlval.KText:
		return reflect.TypeOf("")
	case sqlval.KBlob:
		return reflect.TypeOf([]byte(nil))
	case sqlval.KBool:
		return reflect.TypeOf(false)
	default:
		return nil
	}
}

// Close implements driver.Rows.
func (r *rows) Close() error { return nil }

// Next implements driver.Rows.
func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.rows) {
		return io.EOF
	}
	row := r.rows[r.pos]
	r.pos++
	for i := range dest {
		if i < len(row) {
			dest[i] = toDriverValue(row[i])
		} else {
			dest[i] = nil
		}
	}
	return nil
}

func toDriverValue(v sqlval.Value) driver.Value {
	switch v.Kind() {
	case sqlval.KNull:
		return nil
	case sqlval.KInt:
		return v.Int64()
	case sqlval.KUint:
		// database/sql has no unsigned type; render large values as text.
		if v.Uint64() <= 1<<63-1 {
			return int64(v.Uint64())
		}
		return v.Literal()
	case sqlval.KReal:
		return v.Float64()
	case sqlval.KText:
		return v.Str()
	case sqlval.KBlob:
		return v.Bytes() // already a fresh copy
	case sqlval.KBool:
		return v.BoolVal()
	default:
		return nil
	}
}

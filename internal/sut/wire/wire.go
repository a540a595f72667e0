// Package wire is the string-protocol SUT backend: it reaches the same
// embedded engine strictly through the database/sql facade registered by
// internal/dbdriver. Every statement is rendered SQL shipped over the
// standard driver interfaces and every result row round-trips through
// driver.Value — the surface a real client protocol exposes. Campaigns
// run against it exercise render→parse→execute→convert end to end, which
// is exactly what the conformance suite pins against memengine.
//
// One lossy corner is inherent to the protocol: database/sql has no
// unsigned integer type, so BIGINT UNSIGNED values above 1<<63-1 come
// back as their decimal text rendering.
//
// Importing this package (usually blank) registers the "wire" backend.
package wire

import (
	"context"
	"database/sql"
	"fmt"

	_ "repro/internal/dbdriver" // registers the "pqs" database/sql driver
	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

func init() {
	sut.Register("wire", driverImpl{})
}

type driverImpl struct{}

// Open implements sut.Driver. Each dbdriver connection is its own
// in-memory database, so the DB pins a single *sql.Conn for its lifetime.
func (driverImpl) Open(s sut.Session) (sut.DB, error) {
	pool, err := sql.Open("pqs", s.DSN())
	if err != nil {
		return nil, err
	}
	pool.SetMaxOpenConns(1)
	conn, err := pool.Conn(context.Background())
	if err != nil {
		pool.Close()
		return nil, err
	}
	// The tester consults ground truth (pivot rows, schema) out of band;
	// grab the engine behind the driver connection once for that surface.
	var eng *engine.Engine
	rawErr := conn.Raw(func(dc interface{}) error {
		ex, ok := dc.(interface{ Engine() *engine.Engine })
		if !ok {
			return fmt.Errorf("wire: driver connection %T does not expose its engine", dc)
		}
		eng = ex.Engine()
		return nil
	})
	if rawErr != nil {
		conn.Close()
		pool.Close()
		return nil, rawErr
	}
	// Wire fidelity is not optional here — the backend is the wire.
	s.WireFidelity = true
	return &DB{pool: pool, conn: conn, eng: eng, sess: s}, nil
}

// DB is one wire-protocol session over the pqs database/sql driver.
type DB struct {
	pool *sql.DB
	conn *sql.Conn
	eng  *engine.Engine
	sess sut.Session
}

// Exec implements sut.DB. The database/sql exec path reports rows
// affected but cannot return result rows; use Query for result sets.
func (d *DB) Exec(sqlText string) (*sut.Result, error) {
	res, err := d.conn.ExecContext(context.Background(), sqlText)
	if err != nil {
		return nil, err
	}
	n, _ := res.RowsAffected()
	return &sut.Result{RowsAffected: int(n)}, nil
}

// Query implements sut.DB: rows round-trip through driver.Value and are
// reconstructed into engine values on the client side.
func (d *DB) Query(sqlText string) (*sut.Result, error) {
	rows, err := d.conn.QueryContext(context.Background(), sqlText)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	out := &sut.Result{Columns: cols}
	for rows.Next() {
		dest := make([]interface{}, len(cols))
		ptrs := make([]interface{}, len(cols))
		for i := range dest {
			ptrs[i] = &dest[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		vals := make([]sqlval.Value, len(dest))
		for i, dv := range dest {
			vals[i] = fromDriverValue(dv)
		}
		out.Rows = append(out.Rows, vals)
	}
	return out, rows.Err()
}

// ExecAST implements sut.DB: the statement is rendered and shipped as
// SQL — the wire backend has no AST fast path by construction.
func (d *DB) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	sqlText := sqlast.SQL(st, d.sess.Dialect)
	if returnsRows(st) {
		return d.Query(sqlText)
	}
	return d.Exec(sqlText)
}

// returnsRows reports whether a statement produces a result set (and so
// must go down the query path of the protocol).
func returnsRows(st sqlast.Stmt) bool {
	switch st.(type) {
	case *sqlast.Select, *sqlast.Compound, *sqlast.Explain:
		return true
	default:
		return false
	}
}

// Plan implements sut.DB by shipping an EXPLAIN QUERY PLAN statement over
// the wire and collecting the detail rows.
func (d *DB) Plan(sqlText string) ([]string, error) {
	res, err := d.Query("EXPLAIN QUERY PLAN " + sqlText)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, row := range res.Rows {
		if len(row) > 0 {
			out = append(out, row[0].Str())
		}
	}
	return out, nil
}

// Introspect implements sut.DB. Ground truth deliberately bypasses the
// protocol: pivot selection must reflect stored state, not the possibly
// buggy (or lossy) query path.
func (d *DB) Introspect() sut.Introspection { return d.eng }

// Session implements sut.DB.
func (d *DB) Session() sut.Session { return d.sess }

// Close implements sut.DB.
func (d *DB) Close() error {
	cerr := d.conn.Close()
	if perr := d.pool.Close(); cerr == nil {
		cerr = perr
	}
	return cerr
}

// fromDriverValue reconstructs an engine value from what database/sql
// handed back (the inverse of dbdriver's toDriverValue, up to the
// documented unsigned-overflow lossiness).
func fromDriverValue(dv interface{}) sqlval.Value {
	switch v := dv.(type) {
	case nil:
		return sqlval.Null()
	case int64:
		return sqlval.Int(v)
	case float64:
		return sqlval.Real(v)
	case string:
		return sqlval.Text(v)
	case []byte:
		return sqlval.Blob(v) // Blob copies the payload
	case bool:
		return sqlval.Bool(v)
	default:
		return sqlval.Text(fmt.Sprint(v))
	}
}

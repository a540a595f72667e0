// Package dialect enumerates the SQL dialect profiles emulated by the
// engine substrate. Each profile mirrors the semantic family of one of the
// three DBMS tested in the PQS paper (SQLite, MySQL, PostgreSQL): dynamic
// typing and affinity for SQLite, silent numeric coercion and unsigned
// integers for MySQL, and strict typing for PostgreSQL.
package dialect

import "fmt"

// Dialect identifies one of the emulated SQL dialect profiles.
type Dialect uint8

const (
	// SQLite emulates SQLite's dynamic typing: column types are advisory
	// (affinity), any value fits any column, booleans are integers, and
	// expressions of any type may appear in boolean context.
	SQLite Dialect = iota
	// MySQL emulates MySQL's coercion-heavy semantics: strings convert
	// silently to numbers in numeric context, unsigned integer types
	// exist, and `||` is logical OR rather than concatenation.
	MySQL
	// Postgres emulates PostgreSQL's strict typing: WHERE requires a
	// boolean expression and few implicit conversions are performed.
	Postgres
)

// All lists every dialect, in the order the paper discusses them.
var All = []Dialect{SQLite, MySQL, Postgres}

// String returns the lowercase dialect name used on CLI flags.
func (d Dialect) String() string {
	switch d {
	case SQLite:
		return "sqlite"
	case MySQL:
		return "mysql"
	case Postgres:
		return "postgres"
	default:
		return fmt.Sprintf("dialect(%d)", uint8(d))
	}
}

// DisplayName returns the name used in report tables, matching the paper's
// capitalization.
func (d Dialect) DisplayName() string {
	switch d {
	case SQLite:
		return "SQLite"
	case MySQL:
		return "MySQL"
	case Postgres:
		return "PostgreSQL"
	default:
		return d.String()
	}
}

// Parse converts a CLI name into a Dialect.
func Parse(s string) (Dialect, error) {
	switch s {
	case "sqlite":
		return SQLite, nil
	case "mysql":
		return MySQL, nil
	case "postgres", "postgresql", "pg":
		return Postgres, nil
	}
	return SQLite, fmt.Errorf("dialect: unknown dialect %q", s)
}

// ConcatIsOr reports whether `||` is logical OR (MySQL default) rather than
// string concatenation (SQLite, PostgreSQL).
func (d Dialect) ConcatIsOr() bool { return d == MySQL }

// HasUnsigned reports whether the dialect supports unsigned integer column
// types (MySQL only).
func (d Dialect) HasUnsigned() bool { return d == MySQL }

// LikeCaseInsensitive reports whether LIKE ignores ASCII case by default.
func (d Dialect) LikeCaseInsensitive() bool { return d != Postgres }

// Package sqlval defines the SQL value domain shared by the engine
// substrate and the PQS testing stack: dynamically-typed values, SQL
// three-valued logic, collations, and SQLite-style type affinity.
//
// The package deliberately contains only the *data model*. Operator
// semantics (arithmetic, comparison in expressions, LIKE, casts) are
// implemented twice and independently — once in the engine's evaluator
// (internal/eval) and once in the PQS oracle interpreter (internal/interp) —
// so that an injected engine bug cannot silently infect the oracle.
package sqlval

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Kind is the runtime storage class of a Value.
type Kind uint8

const (
	// KNull is the SQL NULL value.
	KNull Kind = iota
	// KInt is a signed 64-bit integer.
	KInt
	// KUint is an unsigned 64-bit integer (MySQL dialect only).
	KUint
	// KReal is a 64-bit IEEE float.
	KReal
	// KText is a character string.
	KText
	// KBlob is a byte string.
	KBlob
	// KBool is a true boolean (PostgreSQL dialect; SQLite and MySQL
	// store booleans as integers).
	KBool
)

// String returns the storage-class name, matching SQLite's typeof() output
// where applicable.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "null"
	case KInt:
		return "integer"
	case KUint:
		return "unsigned"
	case KReal:
		return "real"
	case KText:
		return "text"
	case KBlob:
		return "blob"
	case KBool:
		return "boolean"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically-typed SQL value. The zero Value is NULL.
//
// The layout is deliberately compact (32 bytes): one word holds the
// numeric payload for every numeric kind (int64 bits, uint64, or float64
// bits, discriminated by kind), and one string holds both text and blob
// payloads. Result rows are the dominant allocation of a campaign, so
// Value size is directly visible in databases/sec.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KInt, n: uint64(i)} }

// Uint returns an unsigned integer value (MySQL).
func Uint(u uint64) Value { return Value{kind: KUint, n: u} }

// Real returns a floating-point value.
func Real(f float64) Value { return Value{kind: KReal, n: math.Float64bits(f)} }

// Text returns a text value.
func Text(s string) Value { return Value{kind: KText, s: s} }

// Blob returns a blob value. The payload is copied.
func Blob(b []byte) Value { return Value{kind: KBlob, s: string(b)} }

// Bool returns a boolean value (PostgreSQL dialect).
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KBool, n: n}
}

// Kind reports the storage class.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KNull }

// Int64 returns the integer payload. Valid only for KInt and KBool.
func (v Value) Int64() int64 { return int64(v.n) }

// Uint64 returns the unsigned payload. Valid only for KUint.
func (v Value) Uint64() uint64 { return v.n }

// Float64 returns the float payload. Valid only for KReal.
func (v Value) Float64() float64 { return math.Float64frombits(v.n) }

// Str returns the text payload. Valid only for KText.
func (v Value) Str() string { return v.s }

// Bytes returns a copy of the blob payload. Valid only for KBlob.
func (v Value) Bytes() []byte { return []byte(v.s) }

// BlobStr returns the blob payload as an immutable string, without
// copying. Valid only for KBlob; prefer it over Bytes in comparison and
// hashing hot paths.
func (v Value) BlobStr() string { return v.s }

// BoolVal returns the boolean payload. Valid only for KBool.
func (v Value) BoolVal() bool { return v.n != 0 }

// IsNumeric reports whether the value is an integer, unsigned, or real.
func (v Value) IsNumeric() bool {
	return v.kind == KInt || v.kind == KUint || v.kind == KReal
}

// AsFloat converts any numeric value (including KBool) to float64.
// It must not be called on non-numeric kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KInt, KBool:
		return float64(int64(v.n))
	case KUint:
		return float64(v.n)
	case KReal:
		return math.Float64frombits(v.n)
	default:
		panic("sqlval: AsFloat on non-numeric " + v.kind.String())
	}
}

// Equal reports exact, type-sensitive equality between two values, with
// integer/real cross-type numeric equality (1 == 1.0). It implements the
// comparison the containment oracle uses when locating the pivot row in a
// result set; NULL equals NULL here (identity, not SQL equality).
func (v Value) Equal(o Value) bool {
	if v.kind == KNull || o.kind == KNull {
		return v.kind == o.kind
	}
	if v.IsNumeric() && o.IsNumeric() {
		return numericEqual(v, o)
	}
	if v.kind != o.kind {
		// Booleans compare equal to their integer encoding so that a
		// pivot row captured as BOOL matches an engine echo as INT.
		if (v.kind == KBool && o.kind == KInt) || (v.kind == KInt && o.kind == KBool) {
			return v.n == o.n
		}
		return false
	}
	switch v.kind {
	case KText:
		return v.s == o.s
	case KBlob:
		return v.s == o.s
	case KBool:
		return (v.n != 0) == (o.n != 0)
	default:
		panic("sqlval: unreachable Equal")
	}
}

func numericEqual(a, b Value) bool {
	if a.kind == KInt && b.kind == KInt {
		return a.n == b.n
	}
	if a.kind == KUint && b.kind == KUint {
		return a.n == b.n
	}
	if a.kind == KInt && b.kind == KUint {
		return int64(a.n) >= 0 && a.n == b.n
	}
	if a.kind == KUint && b.kind == KInt {
		return int64(b.n) >= 0 && b.n == a.n
	}
	return a.AsFloat() == b.AsFloat()
}

// Literal renders the value as a SQL literal parseable by the engine's
// parser in every dialect: the string form of AppendLiteral.
func (v Value) Literal() string {
	switch v.kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KUint:
		return strconv.FormatUint(v.n, 10)
	case KBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	var buf [32]byte
	return string(v.AppendLiteral(buf[:0]))
}

// AppendLiteral appends the value's SQL literal to dst. A REAL always
// carries an exponent or decimal point so it re-parses as a real, never an
// integer; infinities render as out-of-range reals and NaN as NULL.
func (v Value) AppendLiteral(dst []byte) []byte {
	switch v.kind {
	case KInt:
		return strconv.AppendInt(dst, int64(v.n), 10)
	case KUint:
		return strconv.AppendUint(dst, v.n, 10)
	case KReal:
		f := math.Float64frombits(v.n)
		switch {
		case math.IsInf(f, 1):
			return append(dst, "9e999"...)
		case math.IsInf(f, -1):
			return append(dst, "-9e999"...)
		case math.IsNaN(f):
			return append(dst, "NULL"...)
		}
		start := len(dst)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		if !bytes.ContainsAny(dst[start:], ".eE") {
			dst = append(dst, ".0"...)
		}
		return dst
	case KText:
		dst = append(dst, '\'')
		for i := 0; i < len(v.s); i++ {
			if v.s[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, v.s[i])
		}
		return append(dst, '\'')
	case KBlob:
		const digits = "0123456789abcdef"
		dst = append(dst, "x'"...)
		for i := 0; i < len(v.s); i++ {
			dst = append(dst, digits[v.s[i]>>4], digits[v.s[i]&0xf])
		}
		return append(dst, '\'')
	case KNull:
		return append(dst, "NULL"...)
	case KBool:
		if v.n != 0 {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	default:
		panic("sqlval: unreachable Literal")
	}
}

// String implements fmt.Stringer: the value's Literal.
func (v Value) String() string { return v.Literal() }

// Display renders the value the way a result-set row prints it (bare text,
// no quotes), matching the `c0|c1` style of the paper's listings.
func (v Value) Display() string {
	switch v.kind {
	case KNull:
		return ""
	case KText:
		return v.s
	default:
		return v.Literal()
	}
}

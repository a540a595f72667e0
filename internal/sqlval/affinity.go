package sqlval

import (
	"math"
	"strconv"
	"strings"
)

// Affinity is SQLite's column type affinity: the preferred storage class
// for a column. Values inserted into a column are converted to the
// affinity's storage class when the conversion is lossless.
type Affinity uint8

const (
	// AffBlob applies no conversion (SQLite calls this "BLOB affinity",
	// historically "NONE").
	AffBlob Affinity = iota
	// AffText converts numeric values to their text rendering.
	AffText
	// AffNumeric converts text that looks numeric into INTEGER or REAL.
	AffNumeric
	// AffInteger behaves like NUMERIC and additionally converts
	// integral REALs to INTEGER.
	AffInteger
	// AffReal converts integers to floating point.
	AffReal
)

// String names the affinity.
func (a Affinity) String() string {
	switch a {
	case AffBlob:
		return "BLOB"
	case AffText:
		return "TEXT"
	case AffNumeric:
		return "NUMERIC"
	case AffInteger:
		return "INTEGER"
	case AffReal:
		return "REAL"
	default:
		return "BLOB"
	}
}

// AffinityOf derives a column's affinity from its declared type name using
// SQLite's five-rule algorithm (https://sqlite.org/datatype3.html §3.1).
// An empty declared type has BLOB affinity, which is what makes
// `CREATE TABLE t0(c0)` — the paper's canonical opener — store anything.
func AffinityOf(declared string) Affinity {
	t := strings.ToUpper(declared)
	switch {
	case strings.Contains(t, "INT"):
		return AffInteger
	case strings.Contains(t, "CHAR"), strings.Contains(t, "CLOB"), strings.Contains(t, "TEXT"):
		return AffText
	case t == "" || strings.Contains(t, "BLOB"):
		return AffBlob
	case strings.Contains(t, "REAL"), strings.Contains(t, "FLOA"), strings.Contains(t, "DOUB"):
		return AffReal
	default:
		return AffNumeric
	}
}

// ApplyAffinity converts v to the column's preferred storage class if the
// conversion is lossless, following SQLite's insertion-time coercion.
func ApplyAffinity(v Value, a Affinity) Value {
	if v.IsNull() {
		return v
	}
	switch a {
	case AffText:
		switch v.Kind() {
		case KInt, KUint, KReal, KBool:
			return Text(v.Literal())
		}
		return v
	case AffInteger, AffNumeric:
		if v.Kind() == KBool {
			return Int(v.Int64())
		}
		if v.Kind() == KText {
			if n, ok := TextToNumeric(v.Str()); ok {
				return integerify(n)
			}
			return v
		}
		if v.Kind() == KReal {
			return integerify(v)
		}
		return v
	case AffReal:
		switch v.Kind() {
		case KInt:
			return Real(float64(v.Int64()))
		case KUint:
			return Real(float64(v.Uint64()))
		case KBool:
			return Real(float64(v.Int64()))
		case KText:
			if n, ok := TextToNumeric(v.Str()); ok {
				return Real(n.AsFloat())
			}
		}
		return v
	default: // AffBlob: no conversion
		return v
	}
}

// integerify converts a REAL holding an exactly-representable integer back
// to INTEGER, as NUMERIC/INTEGER affinity does.
func integerify(v Value) Value {
	if v.Kind() != KReal {
		return v
	}
	f := v.Float64()
	if f == math.Trunc(f) && f >= -9.223372036854776e18 && f < 9.223372036854776e18 {
		i := int64(f)
		if float64(i) == f {
			return Int(i)
		}
	}
	return v
}

// TextToNumeric parses a string that is *entirely* a numeric literal
// (modulo surrounding spaces) into an INTEGER or REAL value. This is the
// strict parse used by affinity conversion; the lossy prefix parse used in
// expression coercion lives with each evaluator.
func TextToNumeric(s string) (Value, bool) {
	t := strings.TrimSpace(s)
	// Skip the strconv calls that must fail: a failed parse allocates its
	// error and a copy of the input. Only a digit or '.' can follow the
	// optional sign of an accepted literal (strconv's inf/nan and hex
	// forms are rejected below anyway), and only all-digit text can parse
	// as an integer.
	body := t
	if body != "" && (body[0] == '+' || body[0] == '-') {
		body = body[1:]
	}
	if body == "" || (body[0] != '.' && !isDigit(body[0])) {
		return Null(), false
	}
	if allDigits(body) {
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return Int(i), true
		}
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) {
		// Reject hex/underscore forms Go accepts but SQL does not.
		if strings.ContainsAny(t, "xX_pP") {
			return Null(), false
		}
		return Real(f), true
	}
	return Null(), false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// allDigits reports whether s is non-empty ASCII decimal digits only.
func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return s != ""
}

package sqlval

import (
	"math"
	"strings"
)

// Compare is the engine's total storage ordering over values, used by
// indexes, ORDER BY, DISTINCT, and UNIQUE enforcement. It follows SQLite's
// cross-class ordering: NULL < numeric < TEXT < BLOB, with BOOL ordered as
// its integer encoding. TEXT compares under the supplied collation.
//
// This ordering is intentionally *not* used by the PQS oracle interpreter,
// which implements its own comparison semantics (internal/interp), so a bug
// injected in the engine's use of this ordering remains observable.
func Compare(a, b Value, coll Collation) int {
	ra, rb := classRank(a), classRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // both numeric (incl. bool)
		return numericCompare(a, b)
	case 2: // both text
		return CollCompare(a.Str(), b.Str(), coll)
	default: // both blob
		return blobCompare(a.BlobStr(), b.BlobStr())
	}
}

func classRank(v Value) int {
	switch v.Kind() {
	case KNull:
		return 0
	case KInt, KUint, KReal, KBool:
		return 1
	case KText:
		return 2
	default:
		return 3
	}
}

func numericCompare(a, b Value) int {
	// Exact integer fast paths avoid float rounding for large int64s.
	if a.Kind() == KInt && b.Kind() == KInt {
		return cmpInt64(a.Int64(), b.Int64())
	}
	if a.Kind() == KUint && b.Kind() == KUint {
		return cmpUint64(a.Uint64(), b.Uint64())
	}
	if a.Kind() == KInt && b.Kind() == KUint {
		if a.Int64() < 0 {
			return -1
		}
		return cmpUint64(uint64(a.Int64()), b.Uint64())
	}
	if a.Kind() == KUint && b.Kind() == KInt {
		return -numericCompare(b, a)
	}
	if a.Kind() == KBool || b.Kind() == KBool {
		av, bv := a, b
		if av.Kind() == KBool {
			av = Int(av.Int64())
		}
		if bv.Kind() == KBool {
			bv = Int(bv.Int64())
		}
		return numericCompare(av, bv)
	}
	// At least one REAL: compare carefully across int64/float64.
	if a.Kind() == KReal && b.Kind() == KInt {
		return cmpFloatInt(a.Float64(), b.Int64())
	}
	if a.Kind() == KInt && b.Kind() == KReal {
		return -cmpFloatInt(b.Float64(), a.Int64())
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// cmpFloatInt compares a float against an int64 without losing precision
// for integers beyond 2^53, mirroring SQLite's sqlite3IntFloatCompare.
func cmpFloatInt(f float64, i int64) int {
	if math.IsNaN(f) {
		return -1 // NaN sorts first among reals; engine never stores NaN
	}
	if f < -9.223372036854776e18 {
		return -1
	}
	if f >= 9.223372036854776e18 {
		return 1
	}
	tf := math.Trunc(f)
	ti := int64(tf)
	if ti != i {
		return cmpInt64(ti, i)
	}
	if f > tf {
		return 1
	}
	if f < tf {
		return -1
	}
	return 0
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func blobCompare(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt64(int64(len(a)), int64(len(b)))
}

// LitCompare is a total order over values whose equality is exactly
// equality of their Literal renderings: a non-negative KInt equals the
// KUint of the same number, a NaN real equals NULL (both render NULL),
// and any nonzero bool equals TRUE. Everything else compares by kind,
// then by payload bits or bytes, so -0.0 and 0.0 differ and so do a text
// and a blob holding the same bytes. The order itself means nothing
// numerically; it exists so code that compares row multisets "as
// rendered" can sort and compare values without rendering them.
func LitCompare(a, b Value) int {
	ra, rb := litRank(a), litRank(b)
	if ra != rb {
		return cmpInt64(int64(ra), int64(rb))
	}
	switch ra {
	case litNull:
		return 0
	case litText, litBlob:
		return strings.Compare(a.s, b.s)
	case litBool:
		return cmpBool(a.n != 0, b.n != 0)
	default: // integers of one sign, or non-NaN real bits
		return cmpUint64(a.n, b.n)
	}
}

// LitCompareRows extends LitCompare to rows: value by value, then by
// length. Two rows compare equal exactly when their comma-joined
// literals do.
func LitCompareRows(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := LitCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt64(int64(len(a)), int64(len(b)))
}

// Literal-order ranks. Negative KInts and non-negative integers of either
// kind get separate ranks so the integer payload compares as plain
// uint64 bits within each.
const (
	litNull = iota
	litNegInt
	litNonNegInt
	litReal
	litText
	litBlob
	litBool
)

func litRank(v Value) int {
	switch v.kind {
	case KInt:
		if int64(v.n) < 0 {
			return litNegInt
		}
		return litNonNegInt
	case KUint:
		return litNonNegInt
	case KReal:
		if math.IsNaN(math.Float64frombits(v.n)) {
			return litNull
		}
		return litReal
	case KText:
		return litText
	case KBlob:
		return litBlob
	case KBool:
		return litBool
	default:
		return litNull
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	default:
		return 1
	}
}

package sqlval

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KNull {
		t.Fatalf("zero Value should be NULL, got %v", v)
	}
}

func TestConstructorsRoundTrip(t *testing.T) {
	if got := Int(-7).Int64(); got != -7 {
		t.Errorf("Int round trip: got %d", got)
	}
	if got := Uint(1 << 63).Uint64(); got != 1<<63 {
		t.Errorf("Uint round trip: got %d", got)
	}
	if got := Real(2.5).Float64(); got != 2.5 {
		t.Errorf("Real round trip: got %v", got)
	}
	if got := Text("a'b").Str(); got != "a'b" {
		t.Errorf("Text round trip: got %q", got)
	}
	if got := Blob([]byte{0, 255}).Bytes(); string(got) != "\x00\xff" {
		t.Errorf("Blob round trip: got %v", got)
	}
	if !Bool(true).BoolVal() || Bool(false).BoolVal() {
		t.Errorf("Bool round trip failed")
	}
}

func TestLiteralRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(0), "0"},
		{Int(-2851427734582196970), "-2851427734582196970"},
		{Uint(18446744073709551615), "18446744073709551615"},
		{Real(0.5), "0.5"},
		{Real(1), "1.0"},
		{Real(math.Inf(1)), "9e999"},
		{Text(""), "''"},
		{Text("it's"), "'it''s'"},
		{Blob([]byte{0xab, 0x01}), "x'ab01'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.Literal(); got != c.want {
			t.Errorf("Literal(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEqualNumericCrossType(t *testing.T) {
	if !Int(1).Equal(Real(1.0)) {
		t.Error("1 should Equal 1.0")
	}
	if Int(1).Equal(Real(1.5)) {
		t.Error("1 should not Equal 1.5")
	}
	if !Uint(5).Equal(Int(5)) {
		t.Error("uint 5 should Equal int 5")
	}
	if Uint(1 << 63).Equal(Int(-1)) {
		t.Error("2^63 should not Equal -1")
	}
	if !Bool(true).Equal(Int(1)) {
		t.Error("TRUE should Equal 1 (integer encoding)")
	}
	if Text("1").Equal(Int(1)) {
		t.Error("Equal is type-sensitive: '1' != 1")
	}
	if !Null().Equal(Null()) {
		t.Error("containment equality treats NULL as identical to NULL")
	}
	if Null().Equal(Int(0)) {
		t.Error("NULL should not Equal 0")
	}
}

func TestEqualIsReflexiveAndSymmetric(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(-1), Int(math.MaxInt64), Uint(math.MaxUint64),
		Real(0.5), Real(-0.0), Text(""), Text("abc"), Blob(nil),
		Blob([]byte{1, 2}), Bool(true), Bool(false),
	}
	for _, a := range vals {
		if !a.Equal(a) {
			t.Errorf("Equal not reflexive for %v", a)
		}
		for _, b := range vals {
			if a.Equal(b) != b.Equal(a) {
				t.Errorf("Equal not symmetric for %v, %v", a, b)
			}
		}
	}
}

func TestTriBoolTables(t *testing.T) {
	if TriTrue.Not() != TriFalse || TriFalse.Not() != TriTrue || TriUnknown.Not() != TriUnknown {
		t.Error("three-valued NOT table wrong")
	}
	// Kleene AND.
	and := map[[2]TriBool]TriBool{
		{TriTrue, TriTrue}:       TriTrue,
		{TriTrue, TriFalse}:      TriFalse,
		{TriTrue, TriUnknown}:    TriUnknown,
		{TriFalse, TriFalse}:     TriFalse,
		{TriFalse, TriUnknown}:   TriFalse,
		{TriUnknown, TriUnknown}: TriUnknown,
	}
	for in, want := range and {
		if got := in[0].And(in[1]); got != want {
			t.Errorf("%v AND %v = %v, want %v", in[0], in[1], got, want)
		}
		if got := in[1].And(in[0]); got != want {
			t.Errorf("AND not commutative for %v", in)
		}
		// De Morgan: NOT(a AND b) == NOT a OR NOT b.
		if got := in[0].And(in[1]).Not(); got != in[0].Not().Or(in[1].Not()) {
			t.Errorf("De Morgan violated for %v", in)
		}
	}
}

func TestTriBoolValueEncoding(t *testing.T) {
	if !TriTrue.Value().Equal(Int(1)) || !TriFalse.Value().Equal(Int(0)) || !TriUnknown.Value().IsNull() {
		t.Error("integer encoding of TriBool wrong")
	}
	if TriTrue.BoolValue().Kind() != KBool || !TriUnknown.BoolValue().IsNull() {
		t.Error("bool encoding of TriBool wrong")
	}
}

func TestCollations(t *testing.T) {
	cases := []struct {
		a, b string
		c    Collation
		want int
	}{
		{"a", "A", CollBinary, 1},
		{"a", "A", CollNoCase, 0},
		{"a", "b", CollNoCase, -1},
		{"a ", "a", CollRTrim, 0},
		{"a      ", "a", CollRTrim, 0},
		{" a", "a", CollRTrim, -1},
		{"", "   ", CollRTrim, 0},
		{"ÄB", "äb", CollNoCase, -1}, // NOCASE folds ASCII only
	}
	for _, c := range cases {
		if got := CollCompare(c.a, c.b, c.c); got != c.want {
			t.Errorf("CollCompare(%q,%q,%v) = %d, want %d", c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestParseCollation(t *testing.T) {
	for _, name := range []string{"binary", "NOCASE", "RTrim"} {
		if _, ok := ParseCollation(name); !ok {
			t.Errorf("ParseCollation(%q) failed", name)
		}
	}
	if _, ok := ParseCollation("latin1_swedish_ci"); ok {
		t.Error("unknown collation should not parse")
	}
}

func TestAffinityOf(t *testing.T) {
	cases := map[string]Affinity{
		"":                 AffBlob,
		"INT":              AffInteger,
		"TINYINT":          AffInteger,
		"BIGINT UNSIGNED":  AffInteger,
		"CHARACTER(20)":    AffText,
		"VARCHAR(255)":     AffText,
		"TEXT":             AffText,
		"CLOB":             AffText,
		"BLOB":             AffBlob,
		"REAL":             AffReal,
		"DOUBLE PRECISION": AffReal,
		"FLOAT":            AffReal,
		"NUMERIC":          AffNumeric,
		"DECIMAL(10,5)":    AffNumeric,
		"BOOLEAN":          AffNumeric,
		"DATE":             AffNumeric,
	}
	for decl, want := range cases {
		if got := AffinityOf(decl); got != want {
			t.Errorf("AffinityOf(%q) = %v, want %v", decl, got, want)
		}
	}
}

func TestApplyAffinity(t *testing.T) {
	cases := []struct {
		v    Value
		a    Affinity
		want Value
	}{
		{Text("123"), AffInteger, Int(123)},
		{Text(" 2.5 "), AffNumeric, Real(2.5)},
		{Text("2.0"), AffInteger, Int(2)},
		{Text("abc"), AffInteger, Text("abc")},
		{Text("./"), AffInteger, Text("./")}, // Listing 7's value stays TEXT
		{Int(1), AffText, Text("1")},
		{Real(0.5), AffText, Text("0.5")},
		{Int(3), AffReal, Real(3)},
		{Real(7.25), AffInteger, Real(7.25)},
		{Real(7.0), AffInteger, Int(7)},
		{Int(5), AffBlob, Int(5)},
		{Null(), AffText, Null()},
		{Bool(true), AffInteger, Int(1)},
	}
	for _, c := range cases {
		got := ApplyAffinity(c.v, c.a)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("ApplyAffinity(%v, %v) = %v (%v), want %v (%v)",
				c.v, c.a, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestTextToNumericRejectsPartial(t *testing.T) {
	for _, s := range []string{"12abc", "0x10", "1_000", "", "  ", "1e", "--3"} {
		if _, ok := TextToNumeric(s); ok {
			t.Errorf("TextToNumeric(%q) should fail", s)
		}
	}
	for _, s := range []string{"12", "-4", " 7 ", "2.5e3", ".5", "1e10"} {
		if _, ok := TextToNumeric(s); !ok {
			t.Errorf("TextToNumeric(%q) should succeed", s)
		}
	}
}

// textToNumericStrconv is TextToNumeric as strconv alone decides it,
// without the leading-byte pre-check: the reference FuzzTextToNumeric
// compares against.
func textToNumericStrconv(s string) (Value, bool) {
	t := strings.TrimSpace(s)
	if t == "" {
		return Null(), false
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i), true
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) {
		if strings.ContainsAny(t, "xX_pP") {
			return Null(), false
		}
		return Real(f), true
	}
	return Null(), false
}

// FuzzTextToNumeric checks that the pre-check rejects only what strconv
// would have rejected: same verdict, same kind and value on every input.
func FuzzTextToNumeric(f *testing.F) {
	for _, s := range []string{"12", "-4", " 7 ", "2.5e3", ".5", "+.5e-3", "1e10", "12abc", "0x10", "1_000",
		"", "  ", "-", "+", "--3", "inf", "-Inf", "NaN", "infinity", "0x1p4", "1e400", "\t9\n", "99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotOK := TextToNumeric(s)
		want, wantOK := textToNumericStrconv(s)
		if gotOK != wantOK || got.Kind() != want.Kind() || !got.Equal(want) {
			t.Fatalf("TextToNumeric(%q) = %v (%v, %v), strconv gives %v (%v, %v)",
				s, got, got.Kind(), gotOK, want, want.Kind(), wantOK)
		}
	})
}

func TestCompareCrossClassOrdering(t *testing.T) {
	// NULL < numeric < TEXT < BLOB
	ordered := []Value{Null(), Int(math.MinInt64), Real(-1.5), Int(0), Bool(true),
		Int(2), Uint(math.MaxUint64), Text(""), Text("a"), Blob(nil), Blob([]byte{0})}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j], CollBinary)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareLargeIntFloatPrecision(t *testing.T) {
	// 2^62+1 vs float 2^62: the float path would lose the +1.
	big := int64(1) << 62
	if got := Compare(Int(big+1), Real(float64(big)), CollBinary); got != 1 {
		t.Errorf("large int vs float compare = %d, want 1", got)
	}
	if got := Compare(Real(9.3e18), Int(math.MaxInt64), CollBinary); got != 1 {
		t.Errorf("overflowing float should sort above MaxInt64, got %d", got)
	}
	if got := Compare(Real(-9.3e18), Int(math.MinInt64), CollBinary); got != -1 {
		t.Errorf("underflowing float should sort below MinInt64, got %d", got)
	}
}

func TestCompareCollationAware(t *testing.T) {
	if Compare(Text("ABC"), Text("abc"), CollNoCase) != 0 {
		t.Error("NOCASE compare should equate case variants")
	}
	if Compare(Text("abc "), Text("abc"), CollRTrim) != 0 {
		t.Error("RTRIM compare should ignore trailing spaces")
	}
	if Compare(Text("ABC"), Text("abc"), CollBinary) >= 0 {
		t.Error("BINARY compare should be case sensitive")
	}
}

// Property: Compare is antisymmetric and total over randomly generated
// values (via testing/quick).
func TestCompareAntisymmetryQuick(t *testing.T) {
	f := func(ai, bi int64, af, bf float64, as, bs string, pick uint8) bool {
		a := pickValue(pick&0x0f, ai, af, as)
		b := pickValue(pick>>4, bi, bf, bs)
		if math.IsNaN(af) || math.IsNaN(bf) {
			return true
		}
		return Compare(a, b, CollBinary) == -Compare(b, a, CollBinary)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive on random triples.
func TestCompareTransitivityQuick(t *testing.T) {
	f := func(xi, yi, zi int64, xf, yf, zf float64, xs, ys, zs string, pick uint16) bool {
		if math.IsNaN(xf) || math.IsNaN(yf) || math.IsNaN(zf) {
			return true
		}
		x := pickValue(uint8(pick&7), xi, xf, xs)
		y := pickValue(uint8(pick>>3&7), yi, yf, ys)
		z := pickValue(uint8(pick>>6&7), zi, zf, zs)
		if Compare(x, y, CollBinary) <= 0 && Compare(y, z, CollBinary) <= 0 {
			return Compare(x, z, CollBinary) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Equal implies Compare == 0 under BINARY for same-class values.
func TestEqualConsistentWithCompareQuick(t *testing.T) {
	f := func(ai, bi int64, as, bs string, pick uint8) bool {
		a := pickValue(pick&3, ai, 0, as)
		b := pickValue(pick>>2&3, bi, 0, bs)
		if a.Equal(b) {
			return Compare(a, b, CollBinary) == 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: literal rendering of integers and text round-trips.
func TestLiteralRoundTripQuick(t *testing.T) {
	f := func(i int64, s string) bool {
		if got, err := strconv.ParseInt(Int(i).Literal(), 10, 64); err != nil || got != i {
			return false
		}
		lit := Text(s).Literal()
		if !strings.HasPrefix(lit, "'") || !strings.HasSuffix(lit, "'") {
			return false
		}
		body := lit[1 : len(lit)-1]
		return strings.ReplaceAll(body, "''", "'") == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func pickValue(pick uint8, i int64, f float64, s string) Value {
	switch pick % 7 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	case 2:
		return Uint(uint64(i))
	case 3:
		return Real(f)
	case 4:
		return Text(s)
	case 5:
		return Blob([]byte(s))
	default:
		return Bool(i&1 == 1)
	}
}

// litCases are the LitCompare edge cases: every pair whose Literal
// renderings agree or nearly agree across kinds.
var litCases = []Value{
	Null(), Real(math.NaN()), Real(math.Float64frombits(0x7ff8000000000001)),
	Real(0), Real(math.Copysign(0, -1)), Real(math.Inf(1)), Real(math.Inf(-1)), Real(1), Real(-1.5),
	Int(0), Uint(0), Int(1), Uint(1), Int(-1), Uint(math.MaxUint64),
	Int(math.MaxInt64), Uint(math.MaxInt64), Uint(math.MaxInt64 + 1), Int(math.MinInt64),
	Text(""), Blob(nil), Text("a"), Blob([]byte("a")), Text("TRUE"), Text("NULL"), Text("1"),
	Bool(true), Bool(false), {kind: KBool, n: 2}, {kind: KBool, n: math.MaxUint64},
}

// TestLitCompareMatchesLiteral checks LitCompare against the rendering it
// stands in for on every pair of edge cases: equal exactly when Literal
// agrees, antisymmetric, and transitive.
func TestLitCompareMatchesLiteral(t *testing.T) {
	for _, a := range litCases {
		for _, b := range litCases {
			checkLitPair(t, a, b)
			for _, c := range litCases {
				checkLitTriple(t, a, b, c)
			}
		}
	}
	for _, c := range []struct {
		a, b Value
		eq   bool
	}{
		{Real(math.NaN()), Null(), true},
		{Int(7), Uint(7), true},
		{Int(math.MaxInt64), Uint(math.MaxInt64), true},
		{Int(-1), Uint(math.MaxUint64), false},
		{Int(math.MinInt64), Uint(math.MaxInt64 + 1), false},
		{Real(math.Copysign(0, -1)), Real(0), false},
		{Real(math.Inf(1)), Real(math.Inf(-1)), false},
		{Text("a"), Blob([]byte("a")), false},
		{Value{kind: KBool, n: 2}, Bool(true), true},
		{Bool(false), Int(0), false},
	} {
		if got := LitCompare(c.a, c.b) == 0; got != c.eq {
			t.Errorf("LitCompare(%v, %v) == 0 is %v, want %v", c.a, c.b, got, c.eq)
		}
	}
	rows := [][]Value{{Int(1), Text("a,b")}, {Int(1), Text("a"), Text("b")}, {Uint(1), Text("a,b")}}
	for _, a := range rows {
		for _, b := range rows {
			if got, want := LitCompareRows(a, b) == 0, joinLiterals(a) == joinLiterals(b); got != want {
				t.Errorf("LitCompareRows(%v, %v) == 0 is %v, want %v", a, b, got, want)
			}
		}
	}
}

// FuzzLitOrder checks LitCompare's contract on arbitrary values: equality
// exactly when Literal agrees, antisymmetry and transitivity. A kind byte
// picks the kind (low bits) and which of two payloads the value takes
// (bit 3), so values of different kinds often share a payload.
func FuzzLitOrder(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint64(7), uint64(0x7ff8000000000000), "a", "b")
	f.Add(uint8(1), uint8(2|8), uint8(6), uint64(1<<63), uint64(1<<63-1), "", "x")
	f.Add(uint8(3), uint8(0), uint8(3|8), uint64(0), uint64(1<<63), "a", "a")
	f.Add(uint8(4), uint8(5), uint8(6|8), uint64(2), uint64(0x7ff0000000000000), "TRUE", "TRUE")
	f.Fuzz(func(t *testing.T, ka, kb, kc uint8, n0, n1 uint64, s0, s1 string) {
		mk := func(k uint8) Value {
			n, s := n0, s0
			if k&8 != 0 {
				n, s = n1, s1
			}
			switch k % 7 {
			case 0:
				return Null()
			case 1:
				return Int(int64(n))
			case 2:
				return Uint(n)
			case 3:
				return Value{kind: KReal, n: n}
			case 4:
				return Text(s)
			case 5:
				return Blob([]byte(s))
			default:
				return Value{kind: KBool, n: n}
			}
		}
		a, b, c := mk(ka), mk(kb), mk(kc)
		checkLitPair(t, a, b)
		checkLitPair(t, b, c)
		checkLitTriple(t, a, b, c)
	})
}

func checkLitPair(t *testing.T, a, b Value) {
	t.Helper()
	ab, ba := LitCompare(a, b), LitCompare(b, a)
	if (ab == 0) != (a.Literal() == b.Literal()) {
		t.Fatalf("LitCompare(%v, %v) = %d, literals %q and %q", a, b, ab, a.Literal(), b.Literal())
	}
	if ab != -ba {
		t.Fatalf("LitCompare not antisymmetric: (%v, %v) = %d, reversed %d", a, b, ab, ba)
	}
}

func checkLitTriple(t *testing.T, a, b, c Value) {
	t.Helper()
	if LitCompare(a, b) <= 0 && LitCompare(b, c) <= 0 && LitCompare(a, c) > 0 {
		t.Fatalf("LitCompare not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
	}
}

func joinLiterals(row []Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.Literal()
	}
	return strings.Join(parts, ",")
}

// TestAppendLiteralMatches checks AppendLiteral, appending after a
// non-empty prefix, against Literal's own INT/UINT/NULL/BOOL renderings
// and its string form of the rest, on the edge cases and random values.
func TestAppendLiteralMatches(t *testing.T) {
	check := func(v Value) bool {
		prefix := []byte("p.")
		lit := v.AppendLiteral(prefix[:2:2])
		return string(lit[:2]) == "p." && string(lit[2:]) == v.Literal()
	}
	for _, v := range append(litCases, Real(1e21), Real(123), Text("it's"), Blob([]byte{0, 0xff})) {
		if !check(v) {
			t.Errorf("%#v: AppendLiteral differs from Literal %q", v, v.Literal())
		}
	}
	f := func(pick uint8, i int64, fl float64, s string) bool { return check(pickValue(pick, i, fl, s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

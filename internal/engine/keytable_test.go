package engine

import (
	"math"
	"testing"

	"repro/internal/dialect"
	"repro/internal/eval"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// fuzzValue builds one value of the kind k selects from the payloads.
// NaN becomes 0: the engine never produces it (arithmetic turns it into
// NULL), and Compare calls it equal to every real.
func fuzzValue(k uint8, i int64, f float64, s string) sqlval.Value {
	if math.IsNaN(f) {
		f = 0
	}
	switch k % 8 {
	case 0:
		return sqlval.Null()
	case 1:
		return sqlval.Int(i)
	case 2:
		return sqlval.Real(f)
	case 3:
		return sqlval.Real(float64(i))
	case 4:
		return sqlval.Uint(uint64(i))
	case 5:
		return sqlval.Bool(i&1 != 0)
	case 6:
		return sqlval.Text(s)
	default:
		return sqlval.Blob([]byte(s))
	}
}

var fuzzColls = []sqlval.Collation{sqlval.CollBinary, sqlval.CollNoCase, sqlval.CollRTrim}

// FuzzGroupKey checks the invariant every keyTable use rests on: two
// values their operator calls equal produce identical key bytes.
//   - GROUP BY, DISTINCT and the set operators: rowsEqual under a
//     collation implies equal appendAggKey bytes under it.
//   - Hash joins: the dialect's own comparison (`a = b COLLATE c`, as the
//     evaluator runs it) returning TRUE implies equal appendJoinKey bytes.
//
// The second value is drawn both from its own payloads and from the
// first value's, so equal pairs across storage classes come up often.
func FuzzGroupKey(f *testing.F) {
	f.Add(uint8(1), int64(1), 1.0, "a", uint8(3), int64(1), 0.0, "A")
	f.Add(uint8(1), int64(9007199254740993), 0.0, "", uint8(3), int64(9007199254740992), 0.0, "")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(2), int64(0), 0.0, "")
	f.Add(uint8(6), int64(0), 0.0, "a", uint8(7), int64(0), 0.0, "a")
	f.Add(uint8(6), int64(0), 0.0, "ab ", uint8(6), int64(0), 0.0, "AB")
	f.Add(uint8(5), int64(1), 0.0, "", uint8(1), int64(1), 0.0, "")
	f.Add(uint8(4), int64(-1), 0.0, "", uint8(1), int64(-1), 0.0, "")
	f.Add(uint8(6), int64(0), 0.0, "12abc", uint8(1), int64(12), 0.0, "")
	engines := map[dialect.Dialect]*Engine{}
	for _, d := range []dialect.Dialect{dialect.SQLite, dialect.MySQL, dialect.Postgres} {
		engines[d] = Open(d)
	}
	f.Fuzz(func(t *testing.T, k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) {
		a := fuzzValue(k1, i1, f1, s1)
		for _, b := range []sqlval.Value{fuzzValue(k2, i2, f2, s2), fuzzValue(k2, i1, f1, s1)} {
			for _, coll := range fuzzColls {
				if rowsEqual([]sqlval.Value{a}, []sqlval.Value{b}, coll) {
					ka, kb := appendAggKey(nil, a, coll), appendAggKey(nil, b, coll)
					if string(ka) != string(kb) {
						t.Errorf("rowsEqual(%s, %s, %v) but appendAggKey %q != %q", a.Literal(), b.Literal(), coll, ka, kb)
					}
				}
				eq := &sqlast.Binary{Op: sqlast.OpEq,
					L: &sqlast.Collate{X: &sqlast.Literal{Val: a}, Coll: coll}, R: &sqlast.Literal{Val: b}}
				for d, e := range engines {
					tb, err := eval.New(d).EvalBool(eq, nil, nil)
					if err != nil || tb != sqlval.TriTrue {
						continue
					}
					ka, kb := e.appendJoinKey(nil, a, coll), e.appendJoinKey(nil, b, coll)
					if string(ka) != string(kb) {
						t.Errorf("%v: %s = %s under %v but appendJoinKey %q != %q", d, a.Literal(), b.Literal(), coll, ka, kb)
					}
				}
			}
		}
	})
}

package oracle

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlval"
	"repro/internal/sut"
)

// renderedDiff is the divergence rule stepOutcome.diff replaces for rows:
// render every row as comma-joined literals, sort the strings, compare
// them in order. The typed comparison must agree with it on equality and
// quote the same pair of rows.
func renderedDiff(obs, ser [][]sqlval.Value) string {
	enc := func(rows [][]sqlval.Value) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.Literal()
			}
			out[i] = strings.Join(parts, ",")
		}
		sort.Strings(out)
		return out
	}
	a, b := enc(obs), enc(ser)
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows observed, %d in serial replay", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("row (%s) observed vs (%s) in serial replay", a[i], b[i])
		}
	}
	return ""
}

// TestStepOutcomeDiff checks the typed row comparison of serial replay
// against the rendered one: values that render alike (int and uint of one
// number, NaN and NULL) never diverge, values that render differently
// (-0.0 and 0.0, a text and a blob of the same bytes) always do, and
// every message is the rendered rule's, byte for byte.
func TestStepOutcomeDiff(t *testing.T) {
	row := func(vs ...sqlval.Value) []sqlval.Value { return vs }
	i, u, r, txt := sqlval.Int, sqlval.Uint, sqlval.Real, sqlval.Text
	blob := func(s string) sqlval.Value { return sqlval.Blob([]byte(s)) }
	for _, c := range []struct {
		name     string
		obs, ser [][]sqlval.Value
		want     string
	}{
		{"int vs uint", [][]sqlval.Value{row(i(7), txt("a")), row(i(math.MaxInt64))},
			[][]sqlval.Value{row(u(math.MaxInt64)), row(u(7), txt("a"))}, ""},
		{"NaN vs NULL", [][]sqlval.Value{row(r(math.NaN()), i(1))},
			[][]sqlval.Value{row(sqlval.Null(), u(1))}, ""},
		{"negative zero", [][]sqlval.Value{row(r(math.Copysign(0, -1)))}, [][]sqlval.Value{row(r(0))},
			"row (-0.0) observed vs (0.0) in serial replay"},
		{"text vs blob", [][]sqlval.Value{row(txt("a"))}, [][]sqlval.Value{row(blob("a"))},
			"row ('a') observed vs (x'61') in serial replay"},
		{"row count", [][]sqlval.Value{row(i(1)), row(i(2))}, [][]sqlval.Value{row(i(1))},
			"2 rows observed, 1 in serial replay"},
		// The typed order sorts -1, 2, 10 and would first differ at 2;
		// the rendered one sorts "-1" < "10" < "2". The message must
		// quote the rendered order's first difference.
		{"first rendered difference", [][]sqlval.Value{row(i(-1)), row(i(10)), row(i(2))},
			[][]sqlval.Value{row(i(-1)), row(i(11)), row(i(3))},
			"row (10) observed vs (11) in serial replay"},
		{"NULL vs text NULL", [][]sqlval.Value{row(sqlval.Null(), txt("NULL"))},
			[][]sqlval.Value{row(txt("NULL"), sqlval.Null())},
			"row (NULL,'NULL') observed vs ('NULL',NULL) in serial replay"},
		{"bool vs int", [][]sqlval.Value{row(sqlval.Bool(true))}, [][]sqlval.Value{row(i(1))},
			"row (TRUE) observed vs (1) in serial replay"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if ref := renderedDiff(c.obs, c.ser); ref != c.want {
				t.Fatalf("rendered rule says %q, table says %q", ref, c.want)
			}
			var h history
			obs := h.observe(&sut.Result{Rows: c.obs}, nil, true)
			ser := h.observe(&sut.Result{Rows: slices.Clone(c.ser)}, nil, false)
			if got := obs.diff(ser); got != c.want {
				t.Errorf("diff = %q, want %q", got, c.want)
			}
		})
	}
}

package oracle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// snapshotDB is the whole-state capture the serializability and recovery
// oracles compare committed states through: a snapshot of every table's
// rows, and a comparison of one with the live data (sut/memengine).
type snapshotDB interface {
	sut.DB
	Snapshot() *engine.Snapshot
	// DiffSnapshot names the first table whose live rows differ from
	// the snapshot's as a multiset, with captured false for a live table
	// the snapshot lacks; "" when the states agree.
	DiffSnapshot(*engine.Snapshot) (table string, captured bool)
}

// sameState reports whether db's live data holds the rows of want.
func sameState(db snapshotDB, want *engine.Snapshot) bool {
	table, _ := db.DiffSnapshot(want)
	return table == ""
}

// stateDiff describes the first divergence between the state want
// captured and db's live data ("" when they agree). Equality comes from
// DiffSnapshot, which renders nothing; only the divergent table's rows are
// rendered, sorted as literal strings, to say which row differs.
func stateDiff(db snapshotDB, want *engine.Snapshot) string {
	table, captured := db.DiffSnapshot(want)
	if table == "" {
		return ""
	}
	if !captured {
		return fmt.Sprintf("table %s: absent at commit time, present after recovery", table)
	}
	w, h := renderRows(want.RawRows(table)), renderRows(db.Introspect().RawRows(table))
	if len(w) != len(h) {
		return fmt.Sprintf("table %s: %d rows committed, %d recovered", table, len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			return fmt.Sprintf("table %s: committed row (%s) vs recovered (%s)", table, w[i], h[i])
		}
	}
	return ""
}

// renderRows renders rows as comma-joined literals, sorted: the form
// every divergence message quotes. Two rows render alike exactly when
// sqlval.LitCompareRows calls them equal.
func renderRows(rows [][]sqlval.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.Literal())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

package sqlast

import (
	"fmt"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlval"
)

// arenaStmt builds one INSERT of rows rows from a, every node and slice
// from the arena, with values drawn from i.
func arenaStmt(a *Arena, i, rows int) *Insert {
	ins := a.Insert()
	ins.Table = fmt.Sprintf("t%d", i)
	ins.Columns = a.Strings(2)
	ins.Columns[0], ins.Columns[1] = "c0", "c1"
	ins.Rows = a.Rows(rows)
	for r := range ins.Rows {
		row := a.Exprs(2)
		row[0] = a.Lit(sqlval.Int(int64(i*100 + r)))
		row[1] = a.Func("ABS", a.Binary(OpAdd, a.Col(ins.Table, "c0"), a.Lit(sqlval.Int(int64(r)))))
		ins.Rows[r] = row
	}
	return ins
}

// TestArenaCarvedMemoryNeverMoves builds many statements, some larger than
// a chunk, and renders them only at the end: carving a later node must not
// overwrite or move an earlier one. After Reset the same statements come
// out of reused memory, zeroed, and a warm arena allocates nothing.
func TestArenaCarvedMemoryNeverMoves(t *testing.T) {
	var a Arena
	build := func() []Stmt {
		var out []Stmt
		for i := 0; i < 40; i++ {
			out = append(out, arenaStmt(&a, i, 1+i%3*chunkLen/2))
		}
		return out
	}
	render := func(stmts []Stmt) []string {
		out := make([]string, len(stmts))
		for i, st := range stmts {
			out[i] = SQL(st, dialect.SQLite)
		}
		return out
	}
	var want []string
	for i := 0; i < 40; i++ {
		want = append(want, SQL(arenaStmt(new(Arena), i, 1+i%3*chunkLen/2), dialect.SQLite))
	}
	for round := 0; round < 3; round++ {
		a.Reset()
		got := render(build())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d, statement %d: %q, want %q", round, i, got[i], want[i])
			}
		}
	}
	a.Reset()
	if ins := a.Insert(); ins.Table != "" || ins.Columns != nil || ins.Rows != nil {
		t.Fatalf("reused INSERT not zeroed: %+v", ins)
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		for i := 0; i < 40; i++ {
			ins := a.Insert()
			ins.Rows = a.Rows(1 + i%3*chunkLen/2)
			for r := range ins.Rows {
				ins.Rows[r] = a.Exprs(2)
				ins.Rows[r][0] = a.Lit(sqlval.Int(int64(r)))
			}
		}
	})
	if allocs > 0 {
		t.Errorf("warm arena allocates %.1f times per batch (want 0)", allocs)
	}
}

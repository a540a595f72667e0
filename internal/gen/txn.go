package gen

import (
	"slices"

	"repro/internal/sqlast"
)

// Multi-session history generation for the serializability oracle: each
// session gets a short script of transaction-wrapped DML and reads, and
// Interleave draws a deterministic schedule over the scripts from the
// seeded random stream. Scripts are generated against the current
// committed schema without being executed; the oracle executes them later
// under the interleaving.

// Step addresses one statement of one session script inside an
// interleaved history.
type Step struct {
	Session int // index into the scripts slice
	Index   int // statement index within that script
}

// The transaction-control statements every session script shares: the
// engine never mutates a statement, so one node serves every use.
var (
	txnBegin    = &sqlast.Txn{Op: sqlast.TxnBegin}
	txnCommit   = &sqlast.Txn{Op: sqlast.TxnCommit}
	txnRollback = &sqlast.Txn{Op: sqlast.TxnRollback}
)

// SessionScripts generates n per-session statement scripts over the
// database's existing tables. Each script wraps one to three DML or read
// statements in BEGIN … COMMIT (sometimes ROLLBACK), optionally with
// auto-committed statements before or after the transaction — the shapes
// that make snapshot staging, commit validation, and rollback restoration
// observable when sessions overlap. The scripts live in the generator's
// memory until its next Reset.
func (sg *StateGen) SessionScripts(n int) [][]sqlast.Stmt {
	sg.scripts = slices.Grow(sg.scripts[:0], n)[:n]
	for i := range sg.scripts {
		sg.scripts[i] = sg.sessionScript(sg.scripts[i][:0])
	}
	return sg.scripts
}

// sessionScript appends one session's script to stmts.
func (sg *StateGen) sessionScript(stmts []sqlast.Stmt) []sqlast.Stmt {
	capture := func(st sqlast.Stmt) error {
		stmts = append(stmts, st)
		return nil
	}
	// Occasionally an auto-committed statement before the transaction
	// (autocommit reads are the dirty-read observation points).
	if sg.Rnd.Bool(0.3) {
		_ = sg.sessionStmt(capture)
	}
	stmts = append(stmts, txnBegin)
	for j, n := 0, 1+sg.Rnd.Intn(3); j < n; j++ {
		_ = sg.sessionStmt(capture)
	}
	end := txnCommit
	if sg.Rnd.Bool(0.25) {
		end = txnRollback
	}
	stmts = append(stmts, end)
	if sg.Rnd.Bool(0.2) {
		_ = sg.sessionStmt(capture)
	}
	return stmts
}

// sessionStmt captures one history statement: insert-biased DML with
// observational reads mixed in. Reads inside transactions witness the
// snapshot (write-skew detection); reads outside witness committed state
// (dirty-read detection).
func (sg *StateGen) sessionStmt(apply Apply) error {
	tables := sg.E.Tables()
	if len(tables) == 0 {
		return nil
	}
	table := tables[sg.Rnd.Intn(len(tables))]
	switch sg.Rnd.Intn(6) {
	case 0, 1:
		return apply(sg.genSessionRead(table))
	case 2:
		return sg.genUpdate(apply, table)
	case 3:
		return sg.genDelete(apply, table)
	default:
		return sg.insertInto(apply, table, 1+sg.Rnd.Intn(2))
	}
}

// starCol is a session read's full-row projection (shared, never mutated).
var starCol = []sqlast.ResultCol{{Star: true}}

// genSessionRead builds a deterministic observation of one table: its full
// row set, or an aggregate over one column.
func (sg *StateGen) genSessionRead(table string) *sqlast.Select {
	sel := sg.nodes.Select()
	sel.From = sg.nodes.TableRefs(1)
	sel.From[0].Name = table
	info, err := sg.E.Describe(table)
	if err == nil && len(info.Columns) > 0 && sg.Rnd.Bool(0.5) {
		col := info.Columns[sg.Rnd.Intn(len(info.Columns))].Name
		fn := "COUNT"
		if sg.Rnd.Bool(0.3) {
			fn = "MAX"
		}
		sel.Cols = sg.nodes.ResultCols(1)
		sel.Cols[0] = sqlast.ResultCol{X: sg.nodes.Func(fn, sg.nodes.Col(table, col)), Alias: "a"}
		return sel
	}
	sel.Cols = starCol
	return sel
}

// Schedule is the memory Interleave draws schedules in: the steps and the
// per-session cursors. Reusing one Schedule across histories reuses all of
// it.
type Schedule struct {
	steps      []Step
	next, live []int
}

// Interleave draws a deterministic schedule over the session scripts,
// valid until the next call: at each step one session with
// statements remaining is picked from the seeded stream and its next
// statement is appended. Statement order within a session is preserved.
// Replaying the same seed reproduces the identical schedule — the oracle
// executes it single-threaded, so the history is byte-identical at any
// campaign worker count.
func (s *Schedule) Interleave(rnd *Rand, scripts [][]sqlast.Stmt) []Step {
	total := 0
	for _, sc := range scripts {
		total += len(sc)
	}
	next := slices.Grow(s.next[:0], len(scripts))[:len(scripts)]
	clear(next)
	steps := slices.Grow(s.steps[:0], total)
	live := s.live[:0]
	for len(steps) < total {
		live = live[:0]
		for i := range scripts {
			if next[i] < len(scripts[i]) {
				live = append(live, i)
			}
		}
		at := live[rnd.Intn(len(live))]
		steps = append(steps, Step{Session: at, Index: next[at]})
		next[at]++
	}
	s.steps, s.next, s.live = steps, next, live
	return steps
}

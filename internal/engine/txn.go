package engine

// Transaction machinery: BEGIN/COMMIT/ROLLBACK with snapshot-based
// isolation over the copy-on-write storage snapshots, validated at commit
// with table-granularity optimistic concurrency control.
//
// Model. Each Conn is one client session. A session outside a transaction
// auto-commits every statement against the committed state. BEGIN adopts
// the committed state as the transaction's private working state; its
// statements stage effects there, invisible to other sessions. Because the
// engine executes one statement at a time, only one state is "installed"
// in e.data at any moment — the others are parked as COW snapshots and
// swapped in lazily when their session's next statement arrives. A switch
// costs what changed since the last one: a table or index unchanged since
// it was last captured or restored shares that snapshot and restores as a
// no-op, and only a changed one pays a row-pointer slice copy.
//
// Concurrency control is first-writer-wins plus backward validation:
//
//   - While a transaction holds a table in its write set, another open
//     transaction writing that table fails the statement with CodeBusy
//     (the analogue of SQLITE_BUSY on a reserved lock).
//   - At COMMIT, the transaction aborts with CodeConflict if any commit
//     since its BEGIN wrote a table in its read or write set
//     (first-committer-wins). Validating reads as well as writes makes
//     the engine serializable, with commit order as the witness serial
//     order — not merely snapshot-isolated, which would admit write skew.
//
// COMMIT merges only the transaction's written tables (heap, indexes,
// bookkeeping) into the committed state, so concurrent commits to
// disjoint tables compose. It is also the durability boundary: a durable
// engine persists at auto-commit statements and at COMMIT, never for
// statements inside an open transaction — a crash loses open transactions.
//
// Schema changes are not transactional (MySQL semantics): DDL inside an
// open transaction implicitly commits it first, and DDL from another
// session marks every open transaction's snapshot stale, aborting it with
// CodeConflict at its next statement.
//
// Four injectable isolation faults live here (see internal/faults):
// dirty-read-leak, lost-update, snapshot-skew-commit, and
// rollback-restore-miss. All are dormant unless sessions overlap inside
// open transactions, which only the serializability oracle generates.

import (
	"slices"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/xerr"
)

// optionsWrite is the pseudo-table recording that a transaction changed
// session/global options; allWrite marks maintenance statements that touch
// every table. Both start with a byte no real table name can.
const (
	optionsWrite = "\x00options"
	allWrite     = "\x00*"
)

// Conn is one client session of an Engine. The zero session auto-commits
// every statement; Begin/Commit/Rollback statements executed through it
// manage a private transaction. All methods serialize on the engine's
// mutex, like Engine itself.
type Conn struct {
	e   *Engine
	txn *connTxn // nil outside a transaction (guarded by e.mu)
	// open is the state txn points at: every transaction of the session
	// reuses it.
	open connTxn
	// txnRes is the empty result BEGIN, COMMIT and ROLLBACK return,
	// zeroed for each; like any Result it is valid until the next
	// statement.
	txnRes Result
}

// connTxn is the state of one open transaction. Its sets come from the
// engine's free list at BEGIN and go back to it when the transaction ends
// (a committed write set that the commit log keeps goes back when the log
// is truncated).
type connTxn struct {
	beginSeq int64 // commitSeq at BEGIN: validation horizon
	epoch    int64 // ddlEpoch at BEGIN: schema-stability guard
	// work parks the transaction's working state while another session's
	// is installed; nil while this transaction's state is installed.
	work   *Snapshot
	reads  tableSet // lower-cased tables read
	writes tableSet // lower-cased tables written
}

// commitRecord is one entry of the commit log used for backward
// validation; the log is retained only while transactions are open.
type commitRecord struct {
	seq    int64
	writes tableSet
}

// tableSet is a sorted set of lower-cased table names. The pseudo markers
// optionsWrite and allWrite sort before every real name.
type tableSet []string

// add inserts name.
func (s *tableSet) add(name string) {
	if i, found := slices.BinarySearch(*s, name); !found {
		*s = slices.Insert(*s, i, name)
	}
}

// has reports whether name is a member.
func (s tableSet) has(name string) bool {
	_, found := slices.BinarySearch(s, name)
	return found
}

// takeSetLocked returns an empty set from the engine's free list.
func (e *Engine) takeSetLocked() tableSet {
	n := len(e.freeSets)
	if n == 0 {
		return nil
	}
	s := e.freeSets[n-1]
	e.freeSets = e.freeSets[:n-1]
	return s
}

// putSetLocked returns s to the engine's free list.
func (e *Engine) putSetLocked(s tableSet) {
	if cap(s) > 0 {
		clear(s)
		e.freeSets = append(e.freeSets, s[:0])
	}
}

// endTxnLocked closes c's transaction: its sets go back to the free list
// and, once no transaction is open, the commit log is truncated.
func (e *Engine) endTxnLocked(c *Conn) {
	e.putSetLocked(c.txn.reads)
	e.putSetLocked(c.txn.writes)
	c.open = connTxn{}
	c.txn = nil
	delete(e.txns, c)
	if len(e.txns) == 0 {
		e.truncateLogLocked()
	}
}

// truncateLogLocked empties the commit log, returning its sets to the
// free list.
func (e *Engine) truncateLogLocked() {
	for _, rec := range e.commitLog {
		e.putSetLocked(rec.writes)
	}
	clear(e.commitLog)
	e.commitLog = e.commitLog[:0]
}

// NewConn opens an additional session on the engine. Sessions share the
// committed state and the statement lock; each can hold one open
// transaction. A session closed earlier is handed out again.
func (e *Engine) NewConn() *Conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.freeConns)
	if n == 0 {
		return &Conn{e: e}
	}
	c := e.freeConns[n-1]
	e.freeConns = e.freeConns[:n-1]
	c.e = e
	return c
}

// Exec parses and executes src on this session, like Engine.Exec.
func (c *Conn) Exec(src string) (*Result, error) {
	stmts, err := sqlparse.Parse(src, c.e.d)
	if err != nil {
		return nil, xerr.New(xerr.CodeSyntax, "%v", err)
	}
	var res *Result
	for _, st := range stmts {
		res, err = c.ExecStmt(st)
		if err != nil {
			return nil, err
		}
	}
	if res == nil {
		res = &Result{}
	}
	return res, nil
}

// InTxn reports whether the session has an open transaction.
func (c *Conn) InTxn() bool {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.txn != nil
}

// Close rolls back the session's open transaction, if any, and puts the
// session, zeroed, on the engine's free list, from which NewConn hands it
// out again: a closed Conn must not be used again, not even closed again
// once a later NewConn may have reopened it.
func (c *Conn) Close() error {
	e := c.e
	if e == nil {
		return nil // already closed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.txn != nil {
		e.abortTxnLocked(c, false)
	}
	*c = Conn{}
	e.freeConns = append(e.freeConns, c)
	return nil
}

// execTxnLocked executes BEGIN/COMMIT/ROLLBACK (e.mu held).
func (e *Engine) execTxnLocked(c *Conn, tx *sqlast.Txn) (*Result, error) {
	switch tx.Op {
	case sqlast.TxnBegin:
		if c.txn != nil {
			return nil, xerr.New(xerr.CodeTxnState, "cannot start a transaction within a transaction")
		}
		e.installLocked(nil) // park any other session's working state
		c.open = connTxn{
			beginSeq: e.commitSeq,
			epoch:    e.ddlEpoch,
			reads:    e.takeSetLocked(),
			writes:   e.takeSetLocked(),
		}
		c.txn = &c.open
		e.txns[c] = struct{}{}
		// The installed committed state doubles as the transaction's
		// working state from here; park a committed snapshot for everyone
		// else.
		e.commSnap = e.snapshotLocked()
		e.curOwn = c
		return c.emptyResult(), nil
	case sqlast.TxnCommit:
		if c.txn == nil {
			return nil, xerr.New(xerr.CodeTxnState, "cannot commit - no transaction is active")
		}
		if c.txn.epoch != e.ddlEpoch {
			e.abortTxnLocked(c, false)
			return nil, xerr.New(xerr.CodeConflict, "transaction aborted: schema changed by a concurrent session")
		}
		if err := e.commitTxnLocked(c); err != nil {
			return nil, err
		}
		return c.emptyResult(), nil
	default: // TxnRollback
		if c.txn == nil {
			return nil, xerr.New(xerr.CodeTxnState, "cannot rollback - no transaction is active")
		}
		e.abortTxnLocked(c, true)
		return c.emptyResult(), nil
	}
}

// emptyResult returns the session's zeroed transaction-statement result.
func (c *Conn) emptyResult() *Result {
	c.txnRes = Result{}
	return &c.txnRes
}

// installLocked makes `want`'s working state (nil: the committed state)
// the one installed in e.data, parking the current occupant as a COW
// snapshot and recycling the reinstalled one. The global statement
// counter survives the swap.
func (e *Engine) installLocked(want *Conn) {
	if e.curOwn == want {
		return
	}
	parked := e.snapshotLocked()
	seq := e.seq
	if e.curOwn == nil {
		e.commSnap = parked
	} else {
		e.curOwn.txn.work = parked
	}
	var target *Snapshot
	if want == nil {
		target = e.commSnap
		e.commSnap = nil
	} else {
		target = want.txn.work
		want.txn.work = nil
	}
	// Cannot be stale: DDL only runs against the committed state, so the
	// schema cannot change while any transaction snapshot is parked
	// un-aborted; a failure here means that invariant broke.
	if err := e.restoreLocked(target); err != nil {
		e.corrupt = "transaction state switch failed: " + err.Error()
	}
	e.recycleLocked(target)
	e.seq = seq
	e.curOwn = want
}

// owner returns the conn whose state must be installed to run c's next
// statement: c itself inside a transaction, the committed state otherwise.
func owner(c *Conn) *Conn {
	if c.txn != nil {
		return c
	}
	return nil
}

// commitTxnLocked validates and commits c's transaction: merge its written
// tables into the committed state, record the commit for later
// validators, and persist (the durability boundary). On conflict the
// transaction aborts and CodeConflict is returned.
func (e *Engine) commitTxnLocked(c *Conn) error {
	t := c.txn
	if conflict := e.validateTxnLocked(t); conflict != "" {
		e.abortTxnLocked(c, false)
		return xerr.New(xerr.CodeConflict, "cannot commit: %s", conflict)
	}
	// Installing the committed state parks c's working state in t.work,
	// if it was not parked already: that one snapshot is what the merge
	// reads.
	e.installLocked(nil)
	work := t.work
	e.mergeWorkLocked(t, work)
	e.recycleLocked(work)
	e.commitSeq++
	if len(e.txns) > 1 {
		// The log keeps the write set for the transactions still open.
		e.commitLog = append(e.commitLog, commitRecord{seq: e.commitSeq, writes: t.writes})
		t.writes = nil
	}
	e.endTxnLocked(c)
	if e.pg != nil {
		return e.persistLocked()
	}
	return nil
}

// validateTxnLocked is backward validation: any commit after the
// transaction began that wrote a table this transaction wrote (lost
// update) or read (snapshot skew) invalidates it. The two injectable
// faults each disable one half.
func (e *Engine) validateTxnLocked(t *connTxn) string {
	wwCheck := !e.fs.Has(faults.TxnLostUpdate)
	rwCheck := !e.fs.Has(faults.TxnSnapshotSkewCommit)
	for _, rec := range e.commitLog {
		if rec.seq <= t.beginSeq {
			continue
		}
		if wwCheck {
			if w := overlaps(rec.writes, t.writes); w != "" {
				return "concurrent commit wrote table " + displayWrite(w) + " (write-write conflict)"
			}
		}
		if rwCheck {
			if w := overlaps(rec.writes, t.reads); w != "" {
				return "concurrent commit wrote table " + displayWrite(w) + " read by this transaction"
			}
		}
	}
	return ""
}

// overlaps returns the smallest member of the intersection of two
// write/read sets, honouring the allWrite wildcard on either side (which
// overlaps the other set's smallest member), so a conflict always names
// the same table.
func overlaps(a, b tableSet) string {
	if len(a) == 0 || len(b) == 0 {
		return ""
	}
	if a.has(allWrite) {
		return b[0]
	}
	if b.has(allWrite) {
		return a[0]
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return ""
}

func displayWrite(w string) string {
	switch w {
	case optionsWrite:
		return "(options)"
	case allWrite:
		return "(all)"
	}
	return w
}

// mergeWorkLocked installs the transaction's written tables (heap, index
// entries, per-table bookkeeping) from its working snapshot into the
// currently-installed committed state. Unwritten tables keep their
// committed content, so commits to disjoint tables compose.
func (e *Engine) mergeWorkLocked(t *connTxn, work *Snapshot) {
	if t.writes.has(allWrite) {
		seq := e.seq
		if err := e.restoreLocked(work); err != nil {
			e.corrupt = "transaction commit failed: " + err.Error()
		}
		e.seq = seq
		return
	}
	for _, w := range t.writes {
		if w == optionsWrite {
			clear(e.globals)
			for _, g := range work.globals {
				e.globals[g.name] = g.v
			}
			e.caseSensitiveLike = work.csLike
			e.ev.CaseSensitiveLike = work.csLike
			continue
		}
		td := e.data[w]
		ws := work.table(w)
		if td == nil || ws == nil {
			continue // target vanished: DDL implicit-commits, so only a failed write on a missing table
		}
		td.Restore(ws)
		for _, ix := range e.cat.IndexesOn(w) {
			if ixd := e.idx[lower(ix.Name)]; ixd != nil {
				if isnap := work.index(lower(ix.Name)); isnap != nil {
					ixd.Restore(isnap)
				}
			}
		}
		if ts, ok := work.tableState(w); ok {
			cp := ts
			e.state[w] = &cp
		} else {
			delete(e.state, w)
		}
	}
	if work.corrupt != "" {
		e.corrupt = work.corrupt
	}
}

// abortTxnLocked discards c's transaction and reinstates the committed
// state. explicitRollback distinguishes a client ROLLBACK (the
// rollback-restore-miss fault site) from engine-initiated aborts.
func (e *Engine) abortTxnLocked(c *Conn, explicitRollback bool) {
	t := c.txn
	// Injected fault: ROLLBACK leaks the working version of the first
	// (lexicographically) written table into committed state. Only
	// observable when the aborting transaction's state is reachable —
	// installed, or parked behind the committed state.
	var leakName string
	var leakTab *Snapshot
	if explicitRollback && e.fs.Has(faults.TxnRollbackRestoreMiss) {
		if name := firstRealWrite(t.writes); name != "" {
			switch {
			case e.curOwn == c:
				leakName, leakTab = name, e.snapshotLocked()
			case e.curOwn == nil && t.work != nil:
				leakName, leakTab = name, t.work
			}
		}
	}
	if e.curOwn == c {
		seq := e.seq
		// Cannot be stale: see installLocked.
		if err := e.restoreLocked(e.commSnap); err != nil {
			e.corrupt = "transaction rollback failed: " + err.Error()
		}
		e.recycleLocked(e.commSnap)
		e.seq = seq
		e.curOwn = nil
		e.commSnap = nil
	}
	if leakTab != nil {
		if td := e.data[leakName]; td != nil {
			if tsnap := leakTab.table(leakName); tsnap != nil {
				td.Restore(tsnap)
			}
		}
		if leakTab != t.work {
			e.recycleLocked(leakTab)
		}
	}
	e.recycleLocked(t.work)
	e.endTxnLocked(c)
}

// firstRealWrite picks the lexicographically-first real table (not a
// pseudo write marker) from a write set.
func firstRealWrite(writes tableSet) string {
	for _, w := range writes {
		if w != optionsWrite && w != allWrite {
			return w
		}
	}
	return ""
}

// abortAllTxnsLocked discards every open transaction and reinstates the
// committed state. Reset, Restore, and Snapshot call it: all three are
// statement-boundary operations on committed state.
func (e *Engine) abortAllTxnsLocked() {
	if e.curOwn != nil {
		seq := e.seq
		if e.commSnap != nil {
			// Cannot be stale: see installLocked.
			if err := e.restoreLocked(e.commSnap); err != nil {
				e.corrupt = "transaction abort failed: " + err.Error()
			}
		}
		e.recycleLocked(e.commSnap)
		e.seq = seq
		e.curOwn = nil
		e.commSnap = nil
	}
	for c := range e.txns {
		e.recycleLocked(c.txn.work)
		e.endTxnLocked(c)
	}
	e.truncateLogLocked()
}

// noteAutoCommitLocked records an auto-committed mutating statement in the
// commit log so open transactions validate against it. With no open
// transactions the log stays empty.
func (e *Engine) noteAutoCommitLocked(writes tableSet) {
	e.commitSeq++
	if len(e.txns) == 0 {
		e.truncateLogLocked()
		return
	}
	if len(writes) > 0 {
		e.commitLog = append(e.commitLog, commitRecord{seq: e.commitSeq, writes: append(e.takeSetLocked(), writes...)})
	}
}

// writeTargetsLocked returns the lower-cased tables a statement writes
// (empty for read-only statements), in the engine's scratch set, valid
// until the next call. Maintenance without a table target and
// session-option changes use pseudo markers.
func (e *Engine) writeTargetsLocked(st sqlast.Stmt) tableSet {
	s := e.writeScratch[:0]
	switch n := st.(type) {
	case *sqlast.Insert:
		s = append(s, lower(n.Table))
	case *sqlast.Update:
		s = append(s, lower(n.Table))
	case *sqlast.Delete:
		s = append(s, lower(n.Table))
	case *sqlast.Maintenance:
		if n.Table != "" {
			s = append(s, lower(n.Table))
		} else {
			s = append(s, allWrite)
		}
	case *sqlast.SetOption:
		s = append(s, optionsWrite)
	}
	e.writeScratch = s
	return s
}

// readTargetsLocked returns the lower-cased tables a statement reads, in
// the engine's scratch set, valid until the next call. UPDATE/DELETE read
// the table they filter; a view in FROM conservatively reads every table
// (view definitions can reference anything). A postgres scan of a parent
// table without ONLY also reads every table inheriting from it, as the
// scan does.
func (e *Engine) readTargetsLocked(st sqlast.Stmt) tableSet {
	out := e.readScratch[:0]
	viaView := false
	add := func(name string) {
		k := lower(name)
		if t, ok := e.cat.Table(k); ok && t.IsView {
			viaView = true
			return
		}
		out.add(k)
	}
	addRef := func(tr sqlast.TableRef) {
		add(tr.Name)
		if e.d != dialect.Postgres || tr.Only {
			return
		}
		if t, ok := e.cat.Table(tr.Name); ok && !t.IsView && len(t.Children) > 0 {
			for _, leaf := range e.cat.InheritanceLeaves(t)[1:] {
				add(leaf.Name)
			}
		}
	}
	var addSelect func(sel *sqlast.Select)
	addSelect = func(sel *sqlast.Select) {
		for _, tr := range sel.From {
			addRef(tr)
		}
		for _, j := range sel.Joins {
			addRef(j.Table)
		}
	}
	switch n := st.(type) {
	case *sqlast.Select:
		addSelect(n)
	case *sqlast.Compound:
		for _, sel := range n.Selects {
			addSelect(sel)
		}
	case *sqlast.Update:
		add(n.Table)
	case *sqlast.Delete:
		add(n.Table)
	}
	if viaView {
		// Conservative: a view read depends on its whole definition.
		for _, name := range e.cat.TableNames() {
			out.add(lower(name))
		}
	}
	e.readScratch = out
	return out
}

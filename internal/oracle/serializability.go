package oracle

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/sut"
	"repro/internal/xerr"
)

func init() {
	Register("serializability", func(o Options) Oracle { return &serializability{opts: o} })
}

// multiDB is the capability surface the serializability oracle needs
// beyond sut.DB: extra concurrent sessions, plus whole-state snapshot,
// comparison and restore for serial-order replay. Asserted structurally
// like the recovery oracle's crash capability; sut/memengine satisfies
// it, the wire backend (one database per driver connection) cannot.
type multiDB interface {
	snapshotDB
	sut.MultiSession
	RestoreSnapshot(*engine.Snapshot) error
}

// serializability implements the serializability-checking oracle: execute
// a generated multi-session history under a seeded deterministic
// interleaving, then search for an equivalent serial order of its
// committed units. Every committed transaction's statement results
// (including its reads) and the final committed state must be reproduced
// by executing the units one after another in some order on the same
// starting snapshot; rolled-back and conflict-aborted transactions must
// leave no trace. The engine's first-committer-wins validation makes the
// commit order itself a witness serial order, so a sound engine passes on
// the first candidate — any history with no witness at all is a bug.
//
// An instance reuses its check memory (see history), its generator and
// its schedule, so it serves one check at a time. The generator is its
// own, reset per check: the scripts it builds never share memory with the
// statements that built the database.
type serializability struct {
	opts  Options
	h     history
	sg    gen.StateGen
	sched gen.Schedule
}

// Name implements Oracle.
func (*serializability) Name() string { return "serializability" }

// maxSerialOrders bounds the serial-order search. Histories generate at
// most ~9 committed units, and the sound engine always matches the commit
// order (candidate #1), so the cap only bounds work on detections — where
// exhausting it just means "nothing matched within budget", which is the
// detection.
const maxSerialOrders = 720

// sessionTag prefixes one history statement with its session index in
// reproduction traces: "/*S1*/ BEGIN" is session 1's BEGIN. Setup-prefix
// statements carry no tag and replay on the primary session.
func sessionTag(session int) string { return fmt.Sprintf("/*S%d*/ ", session) }

// splitSessionTag recognizes a tagged trace line, returning the session
// index and the bare SQL.
func splitSessionTag(line string) (session int, sql string, ok bool) {
	if !strings.HasPrefix(line, "/*S") {
		return 0, "", false
	}
	end := strings.Index(line, "*/")
	if end < 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(line[3:end])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, strings.TrimSpace(line[end+2:]), true
}

// histStep is one executed statement of an interleaved history.
type histStep struct {
	session int
	st      sqlast.Stmt
	out     stepOutcome
}

// stepOutcome is the comparable observation of one statement: error code
// on failure, row multiset and rows-affected on success. Rows are
// compared as multisets, sorted by sqlval.LitCompareRows, so legal
// row-order differences between the interleaved run and a serial replay
// never count as divergence; two rows are equal exactly when they render
// to the same literals. The rows alias memory the outcome does not own
// (see history.observe).
type stepOutcome struct {
	failed   bool
	code     xerr.Code
	rows     [][]sqlval.Value
	affected int
}

// diff describes the first divergence from another outcome ("" if equal).
// Rows compare typed; only a divergent pair of row multisets is rendered,
// and the message quotes the first row at which the two sorted renderings
// differ.
func (o stepOutcome) diff(rep stepOutcome) string {
	if o.failed != rep.failed {
		return fmt.Sprintf("error divergence (observed failed=%v code=%s, serial failed=%v code=%s)",
			o.failed, o.code, rep.failed, rep.code)
	}
	if o.failed {
		if o.code != rep.code {
			return fmt.Sprintf("error code %s vs %s", o.code, rep.code)
		}
		return ""
	}
	if len(o.rows) != len(rep.rows) {
		return fmt.Sprintf("%d rows observed, %d in serial replay", len(o.rows), len(rep.rows))
	}
	if !slices.EqualFunc(o.rows, rep.rows, sameRow) {
		obs, ser := renderRows(o.rows), renderRows(rep.rows)
		for i := range obs {
			if obs[i] != ser[i] {
				return fmt.Sprintf("row (%s) observed vs (%s) in serial replay", obs[i], ser[i])
			}
		}
	}
	if o.affected != rep.affected {
		return fmt.Sprintf("%d rows affected observed, %d in serial replay", o.affected, rep.affected)
	}
	return ""
}

func sameRow(a, b []sqlval.Value) bool { return sqlval.LitCompareRows(a, b) == 0 }

// unit is one committed unit of a history: a committed transaction's
// statements, or a single auto-committed statement. pos is the global
// step index at which the unit took effect (its COMMIT, or the statement
// itself) — sorting by pos yields the commit order. A unit still open or
// rolled back has pos -1.
type unit struct {
	pos   int
	stmts []int // indices into the history's steps
}

// history is one check's memory: the executed steps and their observed
// outcomes, the sessions' connections, the committed units, the
// open-transaction table, the arenas the observed result rows are copied
// into, the replay's row buffer and the serial-order search's
// permutation. The next check overwrites all of it, so nothing outlives
// the check that filled it: a detection renders its message and trace
// before the check returns, and no Report aliases this memory. An oracle
// instance owns one history (its checks run one at a time, 30 per
// database); SerializabilityReplay builds its own.
type history struct {
	db    multiDB
	steps []histStep
	conns []sut.Conn
	units []unit
	open  []int // session → index into units of its open transaction, or -1

	// vals and rows hold the observed outcomes' rows. Engine result rows
	// die at the next statement, so every row the history observes is
	// copied here; growing an arena leaves earlier outcomes on the old
	// backing array, which nothing writes again during the check.
	vals []sqlval.Value
	rows [][]sqlval.Value
	// replay holds a serial replay's row headers while they are sorted
	// and compared; the values stay in the engine's result.
	replay [][]sqlval.Value

	order, heap []int // searchSerial's permutation and Heap's counters
}

// reset prepares h for a history of n steps on db.
func (h *history) reset(db multiDB, n int) {
	h.db = db
	h.steps = slices.Grow(h.steps[:0], n)
	h.vals, h.rows = h.vals[:0], h.rows[:0]
}

// observe turns one statement's result into an outcome. An observed
// history statement (keep) copies its rows into the arenas, since the
// outcome outlives the result; a serial replay's only sorts the result's
// row headers in h.replay, valid until its next statement.
func (h *history) observe(res *sut.Result, err error, keep bool) stepOutcome {
	if err != nil {
		code, _ := xerr.CodeOf(err)
		return stepOutcome{failed: true, code: code}
	}
	out := stepOutcome{affected: res.RowsAffected}
	if len(res.Rows) == 0 {
		return out
	}
	if keep {
		start := len(h.rows)
		for _, row := range res.Rows {
			at := len(h.vals)
			h.vals = append(h.vals, row...)
			h.rows = append(h.rows, h.vals[at:len(h.vals):len(h.vals)])
		}
		out.rows = h.rows[start:len(h.rows):len(h.rows)]
	} else {
		h.replay = append(h.replay[:0], res.Rows...)
		out.rows = h.replay
	}
	slices.SortFunc(out.rows, sqlval.LitCompareRows)
	return out
}

// assembleUnits extracts the committed units from the executed history
// into h.units, in commit order. Rolled-back transactions, transactions
// whose COMMIT failed (conflict aborts), and statements that failed with
// CodeBusy (the first-writer lock — a pure concurrency artifact with no
// serial counterpart) are excluded: a serializable history is equivalent
// to some serial execution of exactly what committed. Units keep their
// statement lists' capacity from check to check.
func (h *history) assembleUnits(nSessions int) {
	units := h.units[:0]
	add := func(pos int) int {
		units = slices.Grow(units, 1)[:len(units)+1]
		u := &units[len(units)-1]
		u.pos, u.stmts = pos, u.stmts[:0]
		return len(units) - 1
	}
	h.open = slices.Grow(h.open[:0], nSessions)[:nSessions]
	for i := range h.open {
		h.open[i] = -1
	}
	for i, s := range h.steps {
		if tx, ok := s.st.(*sqlast.Txn); ok {
			u := h.open[s.session]
			switch tx.Op {
			case sqlast.TxnBegin:
				if !s.out.failed {
					h.open[s.session] = add(-1)
				}
			case sqlast.TxnCommit:
				if u >= 0 && !s.out.failed && len(units[u].stmts) > 0 {
					units[u].pos = i
				}
				h.open[s.session] = -1
			default: // TxnRollback
				h.open[s.session] = -1
			}
			continue
		}
		if s.out.failed && s.out.code == xerr.CodeBusy {
			continue
		}
		if u := h.open[s.session]; u >= 0 {
			units[u].stmts = append(units[u].stmts, i)
			continue
		}
		u := add(i)
		units[u].stmts = append(units[u].stmts, i)
	}
	// Drop the uncommitted units, swapping rather than overwriting so
	// every unit keeps its statement list's backing array.
	n := 0
	for i := range units {
		if units[i].pos >= 0 {
			units[n], units[i] = units[i], units[n]
			n++
		}
	}
	units = units[:n]
	slices.SortFunc(units, func(a, b unit) int { return a.pos - b.pos })
	h.units = units
}

// replaySerial executes the units in the given order on the restored base
// snapshot through the primary session (auto-commit — serial execution
// needs no transaction machinery, which also keeps replay off the
// injected isolation-fault sites) and compares every statement's outcome
// and the final committed state against the interleaved observations.
func (h *history) replaySerial(base, final *engine.Snapshot) (bool, string) {
	db := h.db
	if err := db.RestoreSnapshot(base); err != nil {
		return false, "snapshot restore failed: " + err.Error()
	}
	for _, ui := range h.order {
		for _, si := range h.units[ui].stmts {
			res, err := db.ExecAST(h.steps[si].st)
			if d := h.steps[si].out.diff(h.observe(res, err, false)); d != "" {
				return false, fmt.Sprintf("statement %d (%s): %s",
					si, sqlast.SQL(h.steps[si].st, db.Session().Dialect), d)
			}
		}
	}
	if d := stateDiff(db, final); d != "" {
		return false, "final state: " + d
	}
	return true, ""
}

// searchSerial looks for a serial order of the committed units that
// reproduces the history: the commit order first (the sound engine's
// witness), then every other permutation up to maxSerialOrders. Returns
// whether a witness order exists, plus the commit-order divergence when
// none does (the most readable explanation of the violation).
func (h *history) searchSerial(base, final *engine.Snapshot) (bool, string) {
	n := len(h.units)
	h.order = slices.Grow(h.order[:0], n)[:n]
	for i := range h.order {
		h.order[i] = i
	}
	ok, commitDiff := h.replaySerial(base, final)
	if ok {
		return true, ""
	}
	// Permute: Heap's algorithm over the remaining orders, bounded.
	order := h.order
	tried := 1
	c := slices.Grow(h.heap[:0], n)[:n]
	clear(c)
	h.heap = c
	i := 0
	for i < n && tried < maxSerialOrders {
		if c[i] < i {
			if i%2 == 0 {
				order[0], order[i] = order[i], order[0]
			} else {
				order[c[i]], order[i] = order[i], order[c[i]]
			}
			tried++
			if ok, _ := h.replaySerial(base, final); ok {
				return true, ""
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return false, commitDiff
}

// runHistory executes the history steps in order, each on its session's
// connection, filling in the observed outcomes. A statement whose error
// the shared error oracle classifies as a bug or crash short-circuits
// with that report (the build-phase error oracle, extended into the
// multi-session phase).
func (h *history) runHistory(env *Env, nSessions int) (*Report, error) {
	db := h.db
	conns := slices.Grow(h.conns[:0], nSessions)[:nSessions]
	clear(conns)
	h.conns = conns
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range h.steps {
		s := &h.steps[i]
		if conns[s.session] == nil {
			c, err := db.NewConn()
			if err != nil {
				return nil, err
			}
			conns[s.session] = c
		}
		if env != nil {
			env.Record()
		}
		res, err := conns[s.session].ExecAST(s.st)
		s.out = h.observe(res, err, true)
		if err != nil {
			switch v := Classify(s.st, err, db.Session().Dialect); v {
			case VerdictBug, VerdictCrash:
				code, _ := xerr.CodeOf(err)
				rep := &Report{
					Oracle:     OracleFor(v),
					DetectedBy: "serializability",
					Message:    err.Error(),
					Code:       code,
				}
				if env != nil {
					rep.Trace = append(env.SetupTrace(), historyTrace(h.steps[:i+1], db)...)
				}
				return rep, nil
			}
		}
	}
	return nil, nil
}

// check runs the history in h.steps on nSessions sessions and searches
// for a serial order, restoring the pre-history state before returning,
// pass or fail. A non-empty detail is the commit order's divergence: no
// serial order matched.
func (h *history) check(env *Env, nSessions int) (rep *Report, detail string, err error) {
	base := h.db.Snapshot()
	defer func() {
		if rerr := h.db.RestoreSnapshot(base); err == nil {
			err = rerr
		}
	}()
	if rep, err = h.runHistory(env, nSessions); err != nil || rep != nil {
		return rep, "", err
	}
	final := h.db.Snapshot()
	h.assembleUnits(nSessions)
	if ok, d := h.searchSerial(base, final); !ok {
		return nil, d, nil
	}
	return nil, "", nil
}

// historyTrace renders the executed history with session tags.
func historyTrace(steps []histStep, db sut.DB) []string {
	d := db.Session().Dialect
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = sessionTag(s.session) + sqlast.SQL(s.st, d)
	}
	return out
}

// Check implements Oracle: one interleaved-history round. The database's
// committed state is restored to its pre-history snapshot before
// returning, pass or fail, so successive checks of a lifecycle all start
// from the state the setup trace describes.
func (o *serializability) Check(db sut.DB, env *Env) (*Report, error) {
	mdb, ok := db.(multiDB)
	if !ok {
		return nil, xerr.New(xerr.CodeUnsupported,
			"serializability oracle requires a multi-session backend with snapshot support (sut/memengine)")
	}
	sg := &o.sg
	sg.Reset(env.Rnd, db.Introspect(), env.Hints)
	nSessions := o.opts.Sessions
	if nSessions <= 0 {
		nSessions = 2 + env.Rnd.Intn(2)
	}
	scripts := sg.SessionScripts(nSessions)
	schedule := o.sched.Interleave(env.Rnd, scripts)
	if len(schedule) == 0 {
		return nil, nil
	}
	h := &o.h
	h.reset(mdb, len(schedule))
	for _, stp := range schedule {
		h.steps = append(h.steps, histStep{session: stp.Session, st: scripts[stp.Session][stp.Index]})
	}
	rep, detail, err := h.check(env, len(scripts))
	if err != nil || rep != nil || detail == "" {
		return rep, err
	}
	return &Report{
		Oracle:     faults.OracleSerializability,
		DetectedBy: "serializability",
		Message: fmt.Sprintf("history of %d committed units matches no serial order; vs commit order: %s",
			len(h.units), detail),
		Trace: append(env.SetupTrace(), historyTrace(h.steps, db)...),
	}, nil
}

// SerializabilityReplay replays a candidate trace and reports whether the
// serializability violation still shows — the reducer's reproduction
// check. Untagged lines are setup, executed on the primary session;
// tagged lines ("/*S<n>*/ …") re-run as the interleaved history in trace
// order on per-session connections, and the serial-order search is
// re-applied. The candidate reproduces iff no serial order matches.
func SerializabilityReplay(db sut.DB, bug *Report, trace []string) bool {
	mdb, ok := db.(multiDB)
	if !ok {
		return false
	}
	d := db.Session().Dialect
	h := &history{}
	h.reset(mdb, 0)
	maxSession := -1
	for _, line := range trace {
		if sess, sql, tagged := splitSessionTag(line); tagged {
			st, err := sqlparse.ParseOne(sql, d)
			if err != nil {
				continue // candidate mangled a statement: skip it
			}
			h.steps = append(h.steps, histStep{session: sess, st: st})
			maxSession = max(maxSession, sess)
		} else {
			_, _ = db.Exec(line) // setup errors just weaken the candidate
		}
	}
	if len(h.steps) == 0 {
		return false
	}
	rep, detail, _ := h.check(nil, maxSession+1)
	return rep == nil && detail != ""
}

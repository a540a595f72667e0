package oracle

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sqlast"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	"repro/internal/xerr"
)

func init() {
	Register("recovery", func(o Options) Oracle { return &recovery{opts: o} })
}

// crashableDB is the capability surface the recovery oracle needs beyond
// sut.DB: simulated crashes, plus the whole-state snapshots its expected
// and recovered states are compared through. It is asserted structurally
// so any backend that supports both (today sut/memengine over the pager
// storage mode) works without a registry change.
type crashableDB interface {
	snapshotDB
	Durable() bool
	ArmCrash(pager.CrashPlan) bool
	DisarmCrash()
	CrashRecover(pager.CrashPlan) error
}

// recovery implements the recovery-equivalence oracle: grow committed
// state with random DML, simulate a power cut at a seed-derived crash
// point (after the final fsync, or mid-commit between WAL append and
// fsync), recover the database from the surviving files, and compare the
// recovered row multisets per table against the expected state. A sound
// pager must recover exactly the committed state for an after-sync crash,
// and either the pre-statement or post-statement state (atomicity, never
// anything in between) for a mid-commit crash. The injected durability
// faults — skipped commit fsync, checksum-blind torn-tail salvage,
// truncated WAL replay — all surface as divergences or recovery failures
// here; the ground truth is a snapshot of the in-memory state taken
// before the crash, never the (possibly buggy) recovery path. A recovered
// table never shares a storage snapshot with it (recovery rebuilds every
// heap), so the comparison always reads its rows.
//
// An instance owns its generator, reset per check, so it serves one check
// at a time. It keeps the statements a check executes as the generator's
// nodes, which live until its next Reset, and renders them only for a
// report.
type recovery struct {
	opts  Options
	sg    gen.StateGen
	stmts []sqlast.Stmt // DML executed since the setup prefix
}

// Name implements Oracle.
func (*recovery) Name() string { return "recovery" }

// RecoveryReplay replays a candidate trace on a crash-capable database
// and reports whether the bug's recorded crash schedule still produces a
// recovery divergence — the reducer's reproduction check. For a
// before-sync plan the final trace statement runs with the crash armed
// (it must die mid-commit with CodeIO, or the candidate no longer
// reproduces); for an after-sync plan the whole trace commits first and
// the power cut lands between statements.
func RecoveryReplay(db sut.DB, bug *Report, trace []string) bool {
	cdb, ok := db.(crashableDB)
	if !ok || !cdb.Durable() || len(trace) == 0 {
		return false
	}
	plan, err := pager.ParseCrashPlan(bug.CrashPlan)
	if err != nil {
		return false
	}
	if plan.Point == pager.BeforeSync {
		for _, sql := range trace[:len(trace)-1] {
			_, _ = db.Exec(sql) // setup errors just weaken the candidate
		}
		before := cdb.Snapshot()
		if !cdb.ArmCrash(plan) {
			return false
		}
		_, err := db.Exec(trace[len(trace)-1])
		if code, _ := xerr.CodeOf(err); err == nil || code != xerr.CodeIO {
			// The armed crash never fired (the statement stopped being a
			// mutating commit): the candidate lost the bug.
			cdb.DisarmCrash()
			return false
		}
		after := cdb.Snapshot()
		if cdb.CrashRecover(plan) != nil {
			return true // recovery failure is itself the detection
		}
		return !sameState(cdb, before) && !sameState(cdb, after)
	}
	for _, sql := range trace {
		_, _ = db.Exec(sql)
	}
	expected := cdb.Snapshot()
	if cdb.CrashRecover(plan) != nil {
		return true
	}
	return !sameState(cdb, expected)
}

// Check implements Oracle: one crash-recovery round.
func (r *recovery) Check(db sut.DB, env *Env) (*Report, error) {
	cdb, ok := db.(crashableDB)
	if !ok || !cdb.Durable() {
		return nil, xerr.New(xerr.CodeUnsupported,
			"recovery oracle requires the durable pager backend (session Storage=\"pager\", CLI -storage=pager)")
	}

	sg := &r.sg
	sg.Reset(env.Rnd, db.Introspect(), env.Hints)
	r.stmts = r.stmts[:0]
	apply := func(st sqlast.Stmt) error {
		env.Record()
		r.stmts = append(r.stmts, st)
		_, err := db.ExecAST(st)
		// Failed statements persisted whatever partial effect they had;
		// only a dead pager (CodeIO) must abort the round, and the armed
		// loop below handles that case itself.
		_ = err
		return nil
	}

	// Grow committed state.
	for i, n := 0, 1+env.Rnd.Intn(3); i < n; i++ {
		if err := sg.RandomDML(apply); err != nil {
			return nil, err
		}
	}

	plan := pager.RandomPlan(env.Rnd.Intn)
	expected := cdb.Snapshot()
	var expectedAfter *engine.Snapshot // BeforeSync: state after the armed statement

	if plan.Point == pager.BeforeSync {
		// Arm the crash inside the next commit and run one more DML: the
		// power cut lands after its WAL frames are appended but before
		// the fsync. The statement dies with CodeIO once the pager goes
		// down; its mutation is still applied in memory, which is exactly
		// the "transaction became durable" half of the atomicity check.
		fired := false
		for try := 0; try < 4 && !fired; try++ {
			expected = cdb.Snapshot()
			if !cdb.ArmCrash(plan) {
				return nil, xerr.New(xerr.CodeUnsupported, "backend cannot simulate crashes")
			}
			err := sg.RandomDML(func(st sqlast.Stmt) error {
				env.Record()
				r.stmts = append(r.stmts, st)
				_, err := db.ExecAST(st)
				return err
			})
			if err != nil {
				if code, _ := xerr.CodeOf(err); code == xerr.CodeIO {
					fired = true
					expectedAfter = cdb.Snapshot()
					break
				}
				// An expected statement error still commits its partial
				// effect, so the armed crash fired with it — the CodeIO
				// override in the engine makes this unreachable for
				// durable backends, but stay safe for foreign ones.
			}
		}
		if !fired {
			// No mutating statement ran (e.g. an empty schema): fall back
			// to an after-sync crash between statements.
			cdb.DisarmCrash()
			plan.Point = pager.AfterSync
			expected = cdb.Snapshot()
		}
	}

	if err := cdb.CrashRecover(plan); err != nil {
		code, _ := xerr.CodeOf(err)
		return &Report{
			Oracle:     faults.OracleRecovery,
			DetectedBy: "recovery",
			Code:       code,
			Message:    fmt.Sprintf("recovery failed after simulated crash (%s): %v", plan, err),
			Trace:      r.trace(env),
			CrashPlan:  plan.String(),
		}, nil
	}

	if plan.Point == pager.BeforeSync {
		// Atomicity: the mid-commit transaction either became durable
		// (the unsynced tail survived intact) or vanished — both legal.
		if sameState(cdb, expected) || sameState(cdb, expectedAfter) {
			return nil, nil
		}
	} else if sameState(cdb, expected) {
		return nil, nil
	}
	return &Report{
		Oracle:     faults.OracleRecovery,
		DetectedBy: "recovery",
		Message: fmt.Sprintf("recovery divergence after simulated crash (%s): %s",
			plan, stateDiff(cdb, expected)),
		Trace:     r.trace(env),
		CrashPlan: plan.String(),
	}, nil
}

// trace renders a report's trace: the setup prefix, then the check's DML.
func (r *recovery) trace(env *Env) []string {
	out := env.SetupTrace()
	for _, st := range r.stmts {
		out = append(out, sqlast.SQL(st, env.Dialect))
	}
	return out
}

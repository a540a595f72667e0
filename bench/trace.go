package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	"repro/internal/sut/memengine"
	"repro/internal/xerr"
)

// tracedBackend is the sut driver of traced passes: memengine with a span
// recorded around every call the tester makes into it.
const tracedBackend = "bench-traced"

// rec receives the spans of every traced database. Traced passes run on
// one goroutine, so it needs no lock.
var rec = &recorder{t0: time.Now()}

func init() {
	sut.Register(tracedBackend, tracedDriver{})
}

// span is one timed call. Spans of one database lifecycle share a trace
// id; parent is the enclosing span (0 = none).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Rows   int    `json:"rows"`
	Err    string `json:"err,omitempty"` // xerr code name, or "error" for other errors
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0     time.Time
	spans  []span
	nextID int
	trace  string // trace id of the open enclosing span
	parent int    // id of the open enclosing span
	pager  pagerStats
}

// pagerStats totals pager counter deltas over the databases of a pass.
type pagerStats struct {
	commits, walFrames, checkpoints, cacheHits, cacheMisses float64
}

// begin opens an enclosing span and makes it the parent of the spans
// recorded until end.
func (r *recorder) begin(trace string) (id int, start time.Time) {
	r.nextID++
	r.trace, r.parent = trace, r.nextID
	return r.nextID, time.Now()
}

// end closes the enclosing span opened by begin.
func (r *recorder) end(id int, name string, start time.Time, err error) {
	r.parent = 0
	r.add(id, 0, name, start, 0, err)
}

// call records a leaf span under the open enclosing span.
func (r *recorder) call(name string, start time.Time, rows int, err error) {
	r.nextID++
	r.add(r.nextID, r.parent, name, start, rows, err)
}

func (r *recorder) add(id, parent int, name string, start time.Time, rows int, err error) {
	s := span{
		Trace: r.trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), Dur: time.Since(start).Nanoseconds(), Rows: rows,
	}
	if err != nil {
		s.Err = "error"
		if code, ok := xerr.CodeOf(err); ok {
			s.Err = code.String()
		}
	}
	r.spans = append(r.spans, s)
}

// writeFile writes every span kept, one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type tracedDriver struct{}

// Open implements sut.Driver. It opens what the timed passes open, so a
// recovery database keeps its pager files in memory here too.
func (tracedDriver) Open(s sut.Session) (sut.DB, error) {
	db, err := memDiskDriver{}.Open(s)
	if err != nil {
		return nil, err
	}
	return &tracedDB{DB: db.(*memengine.DB)}, nil
}

// tracedDB records spans around the engine, sut and storage calls the
// tester makes. It forwards every capability the oracles assert
// structurally (extra sessions, snapshot/restore, crash and recovery), so
// every oracle runs on it unchanged.
type tracedDB struct {
	*memengine.DB
	folded pager.Stats // pager counters already added to rec.pager
}

// stmtSpan names the engine span of a statement by its class.
func stmtSpan(st sqlast.Stmt) string {
	switch k := st.Kind(); {
	case k == "SELECT":
		return "engine.query"
	case k == "INSERT" || k == "UPDATE" || k == "DELETE":
		return "engine.dml"
	case k == "BEGIN" || k == "COMMIT" || k == "ROLLBACK":
		return "engine.txn"
	case strings.HasPrefix(k, "CREATE") || strings.HasPrefix(k, "DROP") || strings.HasPrefix(k, "ALTER"):
		return "engine.ddl"
	default:
		return "engine.other"
	}
}

func execAST(exec func(sqlast.Stmt) (*sut.Result, error), st sqlast.Stmt) (*sut.Result, error) {
	start := time.Now()
	res, err := exec(st)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	rec.call(stmtSpan(st), start, rows, err)
	return res, err
}

// ExecAST implements sut.DB.
func (t *tracedDB) ExecAST(st sqlast.Stmt) (*sut.Result, error) { return execAST(t.DB.ExecAST, st) }

// NewConn implements sut.MultiSession.
func (t *tracedDB) NewConn() (sut.Conn, error) {
	c, err := t.DB.NewConn()
	if err != nil {
		return nil, err
	}
	return tracedConn{c}, nil
}

type tracedConn struct{ sut.Conn }

// ExecAST implements sut.Conn.
func (c tracedConn) ExecAST(st sqlast.Stmt) (*sut.Result, error) { return execAST(c.Conn.ExecAST, st) }

// Introspect implements sut.DB.
func (t *tracedDB) Introspect() sut.Introspection { return tracedIntro{t.DB.Introspect()} }

type tracedIntro struct{ sut.Introspection }

// RawRows implements sut.Introspection.
func (i tracedIntro) RawRows(table string) [][]sqlval.Value {
	start := time.Now()
	rows := i.Introspection.RawRows(table)
	rec.call("sut.rawrows", start, len(rows), nil)
	return rows
}

// Reset implements sut.Resetter.
func (t *tracedDB) Reset() error {
	t.foldPager()
	start := time.Now()
	err := t.DB.Reset()
	rec.call("sut.reset", start, 0, err)
	return err
}

// Snapshot is the serializability oracle's snapshot capability.
func (t *tracedDB) Snapshot() *engine.Snapshot {
	start := time.Now()
	s := t.DB.Snapshot()
	rec.call("storage.snapshot", start, 0, nil)
	return s
}

// RestoreSnapshot is the serializability oracle's restore capability.
func (t *tracedDB) RestoreSnapshot(s *engine.Snapshot) error {
	start := time.Now()
	err := t.DB.RestoreSnapshot(s)
	rec.call("storage.restore", start, 0, err)
	return err
}

// CrashRecover is the recovery oracle's crash capability.
func (t *tracedDB) CrashRecover(plan pager.CrashPlan) error {
	t.foldPager()
	start := time.Now()
	err := t.DB.CrashRecover(plan)
	rec.call("pager.crash_recover", start, 0, err)
	if err == nil {
		// Recovery opened a new pager, whose counters start at zero.
		t.folded = pager.Stats{}
	}
	return err
}

// Close implements sut.DB.
func (t *tracedDB) Close() error {
	t.foldPager()
	return t.DB.Close()
}

// foldPager adds the pager work done since the last fold to rec.pager.
func (t *tracedDB) foldPager() {
	s, ok := t.DB.PagerStats()
	if !ok {
		return
	}
	p, f := &rec.pager, t.folded
	p.commits += float64(s.Commits - f.Commits)
	p.walFrames += float64(s.WalFrames - f.WalFrames)
	p.checkpoints += float64(s.Checkpoints - f.Checkpoints)
	p.cacheHits += float64(s.CacheHits - f.CacheHits)
	p.cacheMisses += float64(s.CacheMisses - f.CacheMisses)
	t.folded = s
}

// hunt runs campaign c the way a one-worker scheduler does, on one
// lifecycle of backend: seeds in order, oracles rotated, stopping at the
// first detection. With traced set each database is a core.lifecycle span.
func hunt(c runner.Campaign, backend string, traced bool) (runner.Result, error) {
	cfg := lifecycleConfig(c)
	cfg.Backend = backend
	lc := core.NewLifecycle(cfg)
	defer lc.Close()
	res := runner.Result{Campaign: c, Seed: -1}
	for off := int64(0); off < int64(c.MaxDatabases); off++ {
		lc.SetOracle(oracleAt(c, off))
		seed := c.BaseSeed + off
		var id int
		var start time.Time
		if traced {
			id, start = rec.begin(fmt.Sprintf("%s/%s/%d", c.Dialect, oracleAt(c, off), seed))
		}
		bug, err := lc.RunSeed(seed)
		if traced {
			rec.end(id, "core.lifecycle", start, err)
		}
		if err != nil {
			return res, fmt.Errorf("%s seed %d: %w", c.Dialect, seed, err)
		}
		res.Databases++
		if bug != nil {
			res.Detected, res.Bug, res.Seed = true, bug, seed
			break
		}
	}
	res.Stats = *lc.TakeStats()
	return res, nil
}

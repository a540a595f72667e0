package main

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/xerr"
)

// spanLayers are the leaf spans of a traced pass. Every layer reports its
// calls per database and its share of lifecycle time. Layers every
// workload runs also report absolute times: a layer only some workloads
// run would report a time of exactly zero on the others.
var spanLayers = []struct {
	name  string
	times bool // us_per_db
	pcts  bool // us_p50 and us_p99 per call
	errs  bool // err_share
}{
	{name: "engine.query", times: true, pcts: true, errs: true},
	{name: "engine.ddl", times: true, errs: true},
	{name: "engine.dml", times: true, pcts: true, errs: true},
	{name: "engine.txn", errs: true},
	{name: "engine.other", times: true, errs: true},
	{name: "sut.rawrows", times: true},
	{name: "sut.reset", times: true},
	{name: "storage.snapshot"},
	{name: "storage.restore"},
	{name: "pager.crash_recover"},
}

// perLayer computes workload w's per-layer metrics: the process counters
// and tester counts of the timed passes, and the span breakdown of one
// single-worker traced pass over the campaigns of the first tracePasses
// timed passes (the same campaigns run untraced give the tracing
// overhead). keep retains the traced pass's spans for writing.
func perLayer(passes []pass, a *audit, keep bool) map[string]metric {
	m := map[string]metric{}
	timedLayers(m, passes)

	var sweep []runner.Result
	for _, p := range passes[:min(tracePasses, len(passes))] {
		sweep = append(sweep, p.results...)
	}
	cs := make([]runner.Campaign, len(sweep))
	for i, r := range sweep {
		cs[i] = r.Campaign
	}
	untraced, _ := huntAll(cs, memDiskBackend, false, a)
	first := len(rec.spans)
	rec.pager = pagerStats{}
	traced, results := huntAll(cs, tracedBackend, true, a)
	a.compare(byCampaign(sweep), results)

	dbs := spanMetrics(m, rec.spans[first:])
	pg := rec.pager
	m["pager.commits_per_db"] = metric{ratio(pg.commits, dbs), "commit/db"}
	m["pager.wal_frames_per_commit"] = metric{ratio(pg.walFrames, pg.commits), "frame/commit"}
	m["pager.checkpoints_per_db"] = metric{ratio(pg.checkpoints, dbs), "ckpt/db"}
	m["pager.cache_hit_rate"] = metric{ratio(pg.cacheHits, pg.cacheHits+pg.cacheMisses), "ratio"}
	m["trace.overhead_share"] = metric{1 - traced/untraced, "ratio"}
	if !keep {
		rec.spans = rec.spans[:first]
	}
	return m
}

func byCampaign(results []runner.Result) map[string]runner.Result {
	out := make(map[string]runner.Result, len(results))
	for _, r := range results {
		out[campaignKey(r.Campaign)] = r
	}
	return out
}

func campaignKey(c runner.Campaign) string {
	return fmt.Sprintf("%s/%v/%s/%d+%d", c.Dialect, c.Oracles, c.Fault, c.BaseSeed, c.MaxDatabases)
}

// huntAll hunts the campaigns one after another on this goroutine and
// returns their databases per second of the time the host let them run.
func huntAll(cs []runner.Campaign, backend string, traced bool, a *audit) (float64, []runner.Result) {
	results := make([]runner.Result, 0, len(cs))
	dbs := 0
	c0, start := readCounters(), time.Now()
	for _, c := range cs {
		r, err := hunt(c, backend, traced)
		if err != nil {
			a.problem("single-worker pass: %v", err)
		}
		dbs += r.Databases
		results = append(results, r)
	}
	return float64(dbs) / ran(time.Since(start), readCounters().sub(c0)).Seconds(), results
}

// compare checks that single-worker lifecycles found what the scheduler
// found for the same campaigns: the same canonical detection, and the
// same tester counters where no detection cut the work short (the
// scheduler's counters then include in-flight databases).
func (a *audit) compare(sweep map[string]runner.Result, single []runner.Result) {
	for _, r := range single {
		k := campaignKey(r.Campaign)
		s, ok := sweep[k]
		switch {
		case !ok:
			a.problem("%s: campaign is not in the sweep", k)
		case s.Detected != r.Detected || s.Seed != r.Seed:
			a.problem("%s: sweep detected=%v at seed %d, single worker detected=%v at seed %d", k, s.Detected, s.Seed, r.Detected, r.Seed)
		case !r.Detected && !sameStats(s.Stats, r.Stats):
			a.problem("%s: sweep and single worker disagree on tester counters", k)
		}
	}
}

func sameStats(a, b core.Stats) bool {
	return a.Statements == b.Statements && a.Queries == b.Queries && a.Databases == b.Databases &&
		a.Artifacts == b.Artifacts && a.Discarded == b.Discarded && maps.Equal(a.Rectified, b.Rectified)
}

// timedLayers adds the process counters and tester counts of the timed
// passes.
func timedLayers(m map[string]metric, passes []pass) {
	var used counters
	var wall time.Duration
	var dbs, stmts, queries, discarded, artifacts float64
	for _, p := range passes {
		used.gcCPU += p.used.gcCPU
		used.busyCPU += p.used.busyCPU
		used.mallocs += p.used.mallocs
		used.stolen += p.used.stolen
		wall += p.wall
		for _, r := range p.results {
			dbs += float64(r.Databases)
			stmts += float64(r.Stats.Statements)
			queries += float64(r.Stats.Queries)
			discarded += float64(r.Stats.Discarded)
			artifacts += float64(r.Stats.Artifacts)
		}
	}
	m["host.stolen_share"] = metric{used.stolen.Seconds() / wall.Seconds(), "ratio"}
	m["runtime.allocs_per_db"] = metric{float64(used.mallocs) / dbs, "obj/db"}
	m["runtime.gc_cpu_share"] = metric{ratio(used.gcCPU, used.busyCPU), "ratio"}
	m["core.queries_per_db"] = metric{queries / dbs, "query/db"}
	m["core.discarded_per_query"] = metric{ratio(discarded, queries), "ratio"}
	m["core.artifacts_per_stmt"] = metric{ratio(artifacts, stmts), "ratio"}
}

// spanMetrics adds the breakdown of one traced pass and returns its
// database count. A layer's share is its time over lifecycle time;
// core.self is lifecycle time its child spans do not cover: generation,
// rectification, the oracle's comparison and the rest of the tester.
func spanMetrics(m map[string]metric, spans []span) (dbs float64) {
	type agg struct {
		n, errs, rows, conflicts float64
		dur                      float64 // µs
		us                       []float64
	}
	by := map[string]*agg{}
	get := func(name string) *agg {
		g := by[name]
		if g == nil {
			g = &agg{}
			by[name] = g
		}
		return g
	}
	conflict := xerr.CodeConflict.String()
	child := map[int]int64{}
	for _, s := range spans {
		g := get(s.Name)
		us := float64(s.Dur) / 1e3
		g.n++
		g.dur += us
		g.rows += float64(s.Rows)
		g.us = append(g.us, us)
		if s.Err != "" {
			g.errs++
		}
		if s.Err == conflict {
			g.conflicts++
		}
		child[s.Parent] += s.Dur
	}
	var self float64
	for _, s := range spans {
		if s.Name == "core.lifecycle" {
			self += float64(s.Dur-child[s.ID]) / 1e3
		}
	}
	life := get("core.lifecycle")
	dbs = life.n
	m["core.lifecycle.us_p50"] = metric{quantile(life.us, 0.50), "us"}
	m["core.lifecycle.us_p99"] = metric{quantile(life.us, 0.99), "us"}
	m["core.self.us_per_db"] = metric{self / dbs, "us"}
	m["core.self.share"] = metric{self / life.dur, "ratio"}
	for _, l := range spanLayers {
		g := get(l.name)
		m[l.name+".calls_per_db"] = metric{g.n / dbs, "call/db"}
		m[l.name+".share"] = metric{g.dur / life.dur, "ratio"}
		if l.times {
			m[l.name+".us_per_db"] = metric{g.dur / dbs, "us"}
		}
		if l.pcts {
			m[l.name+".us_p50"] = metric{quantile(g.us, 0.50), "us"}
			m[l.name+".us_p99"] = metric{quantile(g.us, 0.99), "us"}
		}
		if l.errs {
			m[l.name+".err_share"] = metric{ratio(g.errs, g.n), "ratio"}
		}
	}
	q, txn := get("engine.query"), get("engine.txn")
	m["engine.query.rows_per_call"] = metric{ratio(q.rows, q.n), "row/call"}
	m["engine.txn.conflict_share"] = metric{ratio(txn.conflicts, txn.n), "ratio"}
	return dbs
}

// ratio is n/d, or 0 when there is nothing to divide by.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

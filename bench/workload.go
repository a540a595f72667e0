package main

import (
	"context"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/runner"
)

const (
	// workers is the scheduler pool of every timed pass. One worker leaves
	// the second CPU of the 2-CPU calibration machine to the garbage
	// collector, so the process never has more busy threads than CPUs. Two
	// workers spread no less from run to run there (README.md,
	// "Calibration").
	workers = 1
	// seedRange is how many seeds, from 1, the soaks draw from. Every
	// group of every workload was swept over the whole range without a
	// detection (README.md, "Inputs"), so no operation of a run fails; a
	// change that makes one fail has made the tester unsound.
	seedRange = 120_000
	// setupReps is how many set-up passes a run makes; setup_s is their
	// median.
	setupReps = 5
	// tracePasses is how many timed passes the traced pass repeats.
	tracePasses = 5
)

// group is one (dialect, oracle rotation) of a soak pass.
type group struct {
	dialect dialect.Dialect
	oracles []string
}

// workload is one set of inputs the benchmark runs: a fault-free soak that
// sweeps size seeds of every group per pass.
type workload struct {
	name   string
	groups []group
	size   int // seeds per group of one pass; divides seedRange
}

// The groups leave out the dialect/oracle pairs that report false
// positives on the fault-free engine (README.md, "What the workloads leave
// out"): every mysql lifecycle, postgres TLP and postgres serializability.
var workloads = []*workload{
	// The paper's loop: engine query execution and the tester's
	// generation, rectification and containment check both show.
	{
		name: "pqs",
		groups: []group{
			{dialect.SQLite, []string{"pqs"}},
			{dialect.Postgres, []string{"pqs"}},
		},
		size: 200,
	},
	// The same query layer used differently: cheap whole-result queries
	// (aggregates, UNION ALL) and no rectification, so a rectification
	// change reads flat here.
	{
		name: "metamorphic",
		groups: []group{
			{dialect.SQLite, []string{"tlp", "norec"}},
			{dialect.Postgres, []string{"norec"}},
		},
		size: 400,
	},
	// Writes beside reads: DML, commit validation, snapshot/restore and
	// the pager's WAL and recovery do the work, queries do not.
	{
		name: "writes",
		groups: []group{
			{dialect.SQLite, []string{"serializability"}},
			{dialect.SQLite, []string{"recovery"}},
			{dialect.Postgres, []string{"recovery"}},
		},
		size: 80,
	},
}

// lookup finds a workload by name.
func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// blocks is how many passes of distinct seeds the seed range holds.
func (w *workload) blocks() int { return seedRange / w.size }

// firstBlock is where a run with this seed starts in the seed range:
// spread by a multiplicative hash, so runs with nearby seeds sweep
// unrelated inputs.
func (w *workload) firstBlock(seed int64) int {
	return int((uint64(seed) * 0x9E3779B97F4A7C15 >> 32) % uint64(w.blocks()))
}

// campaigns returns the campaigns of a pass over block b (taken modulo
// the range): one per group, over seeds [1+b·size, 1+(b+1)·size).
func (w *workload) campaigns(b int) []runner.Campaign {
	b = (b%w.blocks() + w.blocks()) % w.blocks()
	var cs []runner.Campaign
	for _, g := range w.groups {
		c := runner.Campaign{
			Dialect:      g.dialect,
			Oracles:      g.oracles,
			MaxDatabases: w.size,
			BaseSeed:     1 + int64(b*w.size),
		}
		if slices.Contains(g.oracles, "recovery") {
			c.Tester.Backend = memDiskBackend
		}
		cs = append(cs, c)
	}
	return cs
}

// lifecycleConfig is the core.Config runner.Scheduler gives the
// lifecycles of campaign c: the traced pass and the detection re-runs
// drive lifecycles with it directly. TestTracedPassMatchesSweep fails if
// it drifts from the scheduler's.
func lifecycleConfig(c runner.Campaign) core.Config {
	cfg := c.Tester
	cfg.Dialect = c.Dialect
	cfg.Faults = faultSet(c)
	for _, o := range c.Oracles {
		if o == "recovery" {
			if cfg.Storage == "" {
				cfg.Storage = "pager"
			}
			cfg.QueriesPerDB = 1
		}
	}
	return cfg
}

// faultSet is the fault set the scheduler gives campaign c (nil when it
// hunts no fault).
func faultSet(c runner.Campaign) *faults.Set {
	if c.Fault == "" {
		return nil
	}
	return faults.NewSet(c.Fault)
}

// oracleAt is the oracle the scheduler runs for seed offset off of c.
func oracleAt(c runner.Campaign, off int64) string {
	if len(c.Oracles) == 0 {
		return ""
	}
	return c.Oracles[int(off)%len(c.Oracles)]
}

// counters are the process-wide work counters read around a pass.
type counters struct {
	cpu     time.Duration // process user + system time; the kernel leaves stolen time out
	gcCPU   float64       // GC CPU seconds (runtime/metrics estimate)
	busyCPU float64       // non-idle CPU seconds (runtime/metrics estimate)
	mallocs uint64
	bytes   uint64
	stolen  time.Duration // CPU time the hypervisor gave to other machines
}

var counterMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readCounters() counters {
	samples := make([]metrics.Sample, len(counterMetrics))
	for i, name := range counterMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   samples[0].Value.Float64(),
		busyCPU: samples[1].Value.Float64() - samples[2].Value.Float64(),
		mallocs: samples[3].Value.Uint64(),
		bytes:   samples[4].Value.Uint64(),
		stolen:  stolen(),
	}
}

// userHZ is the clock tick of /proc/stat's counters (USER_HZ, 100 on
// every architecture Linux runs Go on).
const userHZ = 100

// stolen reads the steal column of /proc/stat: CPU time, summed over this
// machine's CPUs, that a CPU was ready to run but the hypervisor ran
// another machine instead. It is 0 where there is no such column, as on
// bare metal and outside Linux.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// ran is the part of a wall time in which the host let the worker run,
// given the process CPU time and the stolen time counted meanwhile. A
// hypervisor steals from a CPU only while it has work, so it steals from
// the process about in proportion to the CPU time it runs: k = stolen/cpu
// per second run. The worker, always busy, ran wall−s and lost
// s = k·(wall−s), so it ran wall/(1+k) = wall·cpu/(cpu+stolen). On a
// shared host the steal comes and goes over minutes and took up to 83% of
// a pass's wall time on the calibration machine; the throughput a user of
// an unshared machine sees is work over ran.
func ran(wall time.Duration, used counters) time.Duration {
	if used.cpu+used.stolen <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(used.cpu) / float64(used.cpu+used.stolen))
}

func (c counters) sub(o counters) counters {
	return counters{
		cpu:     c.cpu - o.cpu,
		gcCPU:   c.gcCPU - o.gcCPU,
		busyCPU: c.busyCPU - o.busyCPU,
		mallocs: c.mallocs - o.mallocs,
		bytes:   c.bytes - o.bytes,
		stolen:  c.stolen - o.stolen,
	}
}

// pass is one timed sweep: its results and the counters spent on it.
type pass struct {
	wall    time.Duration
	used    counters
	results []runner.Result
}

// ran is the part of the pass's wall time the host let it run.
func (p pass) ran() time.Duration { return ran(p.wall, p.used) }

// dbs and stmts total the work of a pass.
func (p pass) dbs() (n int) {
	for _, r := range p.results {
		n += r.Databases
	}
	return n
}

func (p pass) stmts() (n int) {
	for _, r := range p.results {
		n += r.Stats.Statements
	}
	return n
}

// runPass sweeps the campaigns through the scheduler users drive.
func runPass(cs []runner.Campaign) pass {
	// Start every pass from a collected heap, so garbage from the previous
	// pass is not billed to this one.
	runtime.GC()
	c0 := readCounters()
	t0 := time.Now()
	res := (&runner.Scheduler{Workers: workers}).Sweep(context.Background(), cs)
	wall := time.Since(t0)
	return pass{wall: wall, used: readCounters().sub(c0), results: res}
}

// setup runs setupReps untimed passes on the blocks just before the ones
// the timed passes start at, and returns the time each ran, in seconds.
func setup(w *workload, seed int64) []float64 {
	out := make([]float64, setupReps)
	for r := range out {
		out[r] = runPass(w.campaigns(w.firstBlock(seed) - 1 - r)).ran().Seconds()
	}
	return out
}

// timed runs passes over successive blocks until they have taken seconds
// of wall time.
func timed(w *workload, seed int64, seconds int) []pass {
	var passes []pass
	var spent time.Duration
	for k := 0; spent < time.Duration(seconds)*time.Second; k++ {
		p := runPass(w.campaigns(w.firstBlock(seed) + k))
		spent += p.wall
		passes = append(passes, p)
	}
	return passes
}

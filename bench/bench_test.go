package main

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/runner"
)

// spec is the part of BENCHMARK.json, at the root of the repository,
// that names workloads and metrics.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload so a test can run it in about a second.
func tiny(w *workload) *workload {
	t := *w
	t.size = 12
	return &t
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks each is correct, fails no operation and reports
// exactly the metrics BENCHMARK.json names, finite and with their units,
// and that the workload table and BENCHMARK.json agree.
func TestWorkloadsSmoke(t *testing.T) {
	s := loadSpec(t)
	var specNames []string
	for _, w := range s.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(specNames, names()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", specNames, names())
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := units(s, traced)
				rep := runWorkload(tiny(w), 1, 1, traced, false)
				if !rep.Result.Correct {
					t.Errorf("traced=%v: incorrect: %v", traced, rep.Problems)
				}
				if rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d: %v", traced, rep.Result.Attempted, rep.Result.Failed, rep.Findings)
				}
				got := map[string]string{}
				for name, m := range rep.Result.Metrics {
					got[name] = m.Unit
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %v", traced, name, m.Value)
					}
				}
				if !maps.Equal(got, want) {
					t.Errorf("traced=%v: metrics %v, BENCHMARK.json names %v", traced, sortedKeys(got), sortedKeys(want))
				}
			}
		})
	}
}

func units(s spec, perLayer bool) map[string]string {
	ms := s.EndToEnd
	if perLayer {
		ms = s.PerLayer
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" ("+v+")")
	}
	sort.Strings(out)
	return out
}

// faultFor returns a registered fault whose campaigns run the oracle.
func faultFor(name string) (faults.Info, bool) {
	for _, info := range faults.All() {
		if oracle.ForFault(info) == name {
			return info, true
		}
	}
	return faults.Info{}, false
}

// TestBackendsTransparent checks that the benchmark's own backends change
// nothing the tester sees: for each of the five oracles, fault-free and
// hunting a fault, lifecycles on bench-memdisk and bench-traced report
// the same detections, traces and counters as on memengine, whose
// recovery databases keep their pager files on disk.
func TestBackendsTransparent(t *testing.T) {
	for _, name := range []string{"pqs", "tlp", "norec", "recovery", "serializability"} {
		cs := []runner.Campaign{{Dialect: dialect.SQLite, Oracles: []string{name}, MaxDatabases: 20, BaseSeed: 11}}
		if info, ok := faultFor(name); ok {
			cs = append(cs, runner.Campaign{Dialect: info.Dialect, Fault: info.ID, Oracles: []string{name}, MaxDatabases: 300, BaseSeed: 1})
		} else {
			t.Errorf("no registered fault runs the %s oracle", name)
		}
		for _, c := range cs {
			plain, err := hunt(c, "memengine", false)
			if err != nil {
				t.Fatal(err)
			}
			if c.Fault != "" && !plain.Detected {
				t.Errorf("%s: fault not detected within %d databases", campaignKey(c), c.MaxDatabases)
			}
			for _, backend := range []string{memDiskBackend, tracedBackend} {
				got, err := hunt(c, backend, backend == tracedBackend)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Detected != got.Detected || plain.Seed != got.Seed || !sameStats(plain.Stats, got.Stats) {
					t.Errorf("%s: memengine detected=%v seed=%d stats=%+v, %s detected=%v seed=%d stats=%+v",
						campaignKey(c), plain.Detected, plain.Seed, plain.Stats, backend, got.Detected, got.Seed, got.Stats)
				}
				if plain.Detected && got.Detected && (plain.Bug.Message != got.Bug.Message || !slices.Equal(plain.Bug.Trace, got.Bug.Trace)) {
					t.Errorf("%s: %s detection differs: %q vs %q", campaignKey(c), backend, plain.Bug.Message, got.Bug.Message)
				}
			}
		}
	}
	rec.spans = nil
}

// TestTracedPassMatchesSweep checks that the lifecycles the traced pass
// drives are configured as runner.Scheduler configures them: for a few
// passes of every workload, a sweep and single-worker lifecycles agree on
// detections and tester counters.
func TestTracedPassMatchesSweep(t *testing.T) {
	var cs []runner.Campaign
	for _, w := range workloads {
		for b := range 3 {
			cs = append(cs, tiny(w).campaigns(b*997)...)
		}
	}
	sweep := (&runner.Scheduler{Workers: 2}).Sweep(context.Background(), cs)
	var a audit
	_, single := huntAll(cs, memDiskBackend, false, &a)
	a.compare(byCampaign(sweep), single)
	for _, p := range a.problems {
		t.Error(p)
	}
}

// TestPassesStayInSeedRange checks that every pass, set-up and timed,
// draws its seeds from the swept range, for seeds near and far.
func TestPassesStayInSeedRange(t *testing.T) {
	for _, w := range workloads {
		if seedRange%w.size != 0 {
			t.Errorf("%s: size %d does not divide the seed range", w.name, w.size)
		}
		for _, seed := range []int64{0, 1, 2, -5, 1 << 40} {
			first := w.firstBlock(seed)
			for _, b := range []int{first - setupReps, first, first + w.blocks() + 3} {
				for _, c := range w.campaigns(b) {
					if c.BaseSeed < 1 || c.BaseSeed+int64(c.MaxDatabases) > seedRange+1 {
						t.Errorf("%s seed %d block %d: seeds [%d, %d) leave [1, %d]", w.name, seed, b, c.BaseSeed, c.BaseSeed+int64(c.MaxDatabases), seedRange)
					}
				}
			}
		}
	}
}

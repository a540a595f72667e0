package runner

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
)

func TestCampaignDetects(t *testing.T) {
	res := Run(Campaign{
		Dialect:      dialect.MySQL,
		Fault:        faults.InsertVisibility,
		MaxDatabases: 300,
		Workers:      4,
		Reduce:       true,
	})
	if !res.Detected {
		t.Fatalf("campaign missed %s in %d databases", faults.InsertVisibility, res.Databases)
	}
	if res.Bug.Oracle != faults.OracleContainment {
		t.Errorf("oracle = %s, want containment", res.Bug.Oracle)
	}
	if len(res.Reduced) == 0 || len(res.Reduced) > len(res.Bug.Trace) {
		t.Errorf("reduction: %d -> %d", len(res.Bug.Trace), len(res.Reduced))
	}
	if res.Stats.Statements == 0 || res.Databases == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

func TestCampaignSoundness(t *testing.T) {
	// No fault enabled: the campaign must exhaust its budget without a
	// detection.
	res := Run(Campaign{
		Dialect:      dialect.SQLite,
		MaxDatabases: 40,
		Workers:      4,
	})
	if res.Detected {
		t.Fatalf("false positive: %s (%s)", res.Bug.Message, res.Bug.Oracle)
	}
	if res.Databases != 40 {
		t.Errorf("budget not exhausted: %d databases", res.Databases)
	}
	if res.Errors != 0 {
		t.Errorf("%d databases failed: %v", res.Errors, res.Err)
	}
}

// TestCampaignReportsLifecycleErrors: an oracle the registry does not know
// fails every database lifecycle. The failures still count against the
// budget, and the campaign must report them rather than a clean miss.
func TestCampaignReportsLifecycleErrors(t *testing.T) {
	res := Run(Campaign{
		Dialect:      dialect.SQLite,
		MaxDatabases: 10,
		Workers:      2,
		BaseSeed:     1,
		Oracles:      []string{"tlpp"},
	})
	if res.Detected {
		t.Fatalf("unexpected detection: %s", res.Bug.Message)
	}
	if res.Errors != res.Campaign.MaxDatabases || res.Databases != res.Campaign.MaxDatabases {
		t.Fatalf("Errors = %d, Databases = %d, want both %d", res.Errors, res.Databases, res.Campaign.MaxDatabases)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), `"tlpp"`) {
		t.Fatalf("Err = %v, want the unknown-oracle error", res.Err)
	}
}

func TestCampaignDeterministicSeeding(t *testing.T) {
	run := func() (bool, int) {
		res := Run(Campaign{
			Dialect:      dialect.SQLite,
			Fault:        faults.VacuumCorrupt,
			MaxDatabases: 100,
			Workers:      1, // single worker for strict determinism
			BaseSeed:     77,
		})
		return res.Detected, len(res.Reduced)
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Errorf("campaign not deterministic: (%v,%d) vs (%v,%d)", d1, r1, d2, r2)
	}
}

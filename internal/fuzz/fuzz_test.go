package fuzz

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sut"
)

func TestFuzzerSoundness(t *testing.T) {
	for _, d := range dialect.All {
		for seed := int64(0); seed < 30; seed++ {
			f := New(Config{Session: sut.Session{Dialect: d}, Seed: seed})
			bug, err := f.RunDatabase()
			if err != nil {
				t.Fatalf("[%s] seed %d: %v", d, seed, err)
			}
			if bug != nil {
				t.Fatalf("[%s] seed %d: fuzzer false positive: %s", d, seed, bug.Message)
			}
		}
	}
}

// The fuzzer catches error-oracle and crash faults...
func TestFuzzerFindsErrorFaults(t *testing.T) {
	found := false
	for seed := int64(0); seed < 150 && !found; seed++ {
		f := New(Config{
			Session: sut.Session{Dialect: dialect.SQLite, Faults: faults.NewSet(faults.VacuumCorrupt)},
			Seed:    seed,
		})
		bug, err := f.RunDatabase()
		if err != nil {
			t.Fatal(err)
		}
		if bug != nil {
			if bug.Oracle == faults.OracleContainment {
				t.Fatalf("fuzzer cannot produce containment detections, got %s", bug.Message)
			}
			found = true
		}
	}
	if !found {
		t.Error("fuzzer should find VACUUM corruption")
	}
}

// ...but is blind to logic faults: the engine silently returns wrong rows
// and the fuzzer has no oracle to notice (the paper's central claim).
func TestFuzzerBlindToLogicFaults(t *testing.T) {
	for _, f := range []faults.Fault{faults.PartialIndexNotNull, faults.DoubleNegation} {
		info, _ := faults.Lookup(f)
		for seed := int64(0); seed < 100; seed++ {
			fz := New(Config{Session: sut.Session{Dialect: info.Dialect, Faults: faults.NewSet(f)}, Seed: seed})
			bug, err := fz.RunDatabase()
			if err != nil {
				t.Fatal(err)
			}
			if bug != nil && bug.Oracle == faults.OracleContainment {
				t.Fatalf("fuzzer somehow detected logic fault %s", f)
			}
		}
	}
}

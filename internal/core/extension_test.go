package core

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sut"
)

// The INTERSECT containment form must be as sound as the client-side check.
func TestContainmentViaQuerySoundness(t *testing.T) {
	for _, d := range dialect.All {
		for seed := int64(0); seed < 30; seed++ {
			tester := NewTester(Config{
				Session: sut.Session{Dialect: d}, Seed: seed, QueriesPerDB: 15,
				ContainmentViaQuery: true,
			})
			bug, err := tester.RunDatabase()
			if err != nil {
				t.Fatalf("[%s] seed %d: %v", d, seed, err)
			}
			if bug != nil {
				t.Fatalf("[%s] seed %d: INTERSECT-form false positive: %s\n%s",
					d, seed, bug.Message, traceText(bug.Trace))
			}
		}
	}
}

// The INTERSECT form still detects logic bugs.
func TestContainmentViaQueryDetects(t *testing.T) {
	found := false
	for seed := int64(1); seed < 300 && !found; seed++ {
		tester := NewTester(Config{
			Session:             sut.Session{Dialect: dialect.MySQL, Faults: faults.NewSet(faults.InsertVisibility)},
			Seed:                seed,
			ContainmentViaQuery: true,
		})
		bug, err := tester.RunDatabase()
		if err != nil {
			t.Fatal(err)
		}
		found = bug != nil
	}
	if !found {
		t.Error("INTERSECT containment form failed to detect a logic fault")
	}
}

// Negative (anticontainment) checks must not fire on a correct engine.
func TestNegativeChecksSoundness(t *testing.T) {
	for _, d := range dialect.All {
		for seed := int64(0); seed < 30; seed++ {
			tester := NewTester(Config{
				Session: sut.Session{Dialect: d}, Seed: seed, QueriesPerDB: 15,
				NegativeChecks: true,
			})
			bug, err := tester.RunDatabase()
			if err != nil {
				t.Fatalf("[%s] seed %d: %v", d, seed, err)
			}
			if bug != nil {
				t.Fatalf("[%s] seed %d: negative-check false positive: %s\n%s",
					d, seed, bug.Message, traceText(bug.Trace))
			}
		}
	}
}

// The §7 extension catches row-adding bugs: the is-not-null optimization
// makes `NOT (c IS NULL)` TRUE for NULL rows, so a FALSE-rectified
// condition erroneously fetches the pivot.
func TestNegativeChecksDetectRowAddingBug(t *testing.T) {
	found := false
	for seed := int64(1); seed < 400 && !found; seed++ {
		tester := NewTester(Config{
			Session:        sut.Session{Dialect: dialect.SQLite, Faults: faults.NewSet(faults.IsNotNullOpt)},
			Seed:           seed,
			NegativeChecks: true,
		})
		bug, err := tester.RunDatabase()
		if err != nil {
			t.Fatal(err)
		}
		if bug != nil && bug.Negative {
			found = true
		}
	}
	if !found {
		t.Error("negative checks never produced an anticontainment detection")
	}
}

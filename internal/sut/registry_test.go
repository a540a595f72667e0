package sut_test

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sut"
)

func TestRegistry(t *testing.T) {
	got := sut.Drivers()
	for _, want := range []string{"memengine", "wire"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("backend %q not registered (have %v)", want, got)
		}
	}

	if _, err := sut.Open("no-such-backend", sut.Session{Dialect: dialect.SQLite}); err == nil {
		t.Error("unknown backend should fail to open")
	} else if !strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("error should name the backend: %v", err)
	}

	// "" selects the default backend.
	db, err := sut.Open("", sut.Session{Dialect: dialect.SQLite})
	if err != nil {
		t.Fatalf("default backend: %v", err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t0(c0 INT)"); err != nil {
		t.Fatal(err)
	}
	if n := db.Introspect().RowCount("t0"); n != 0 {
		t.Errorf("RowCount = %d, want 0", n)
	}
}

// TestSessionOptionsReachBackend checks each Session knob observably
// changes the opened database on both backends.
func TestSessionOptionsReachBackend(t *testing.T) {
	for _, backend := range []string{"memengine", "wire"} {
		t.Run(backend, func(t *testing.T) {
			// Faults reach the engine.
			db := mustOpen(t, backend, sut.Session{
				Dialect: dialect.SQLite,
				Faults:  faults.NewSet(faults.PartialIndexNotNull),
			})
			defer db.Close()
			if db.Session().Faults == nil || !db.Session().Faults.Has(faults.PartialIndexNotNull) {
				t.Error("session fault set lost")
			}

			// NoPlanner forces full scans: Plan must not report an index.
			np := mustOpen(t, backend, sut.Session{Dialect: dialect.SQLite, NoPlanner: true})
			defer np.Close()
			for _, sql := range []string{
				"CREATE TABLE t0(c0 INT)",
				"CREATE INDEX i0 ON t0(c0)",
				"INSERT INTO t0 VALUES (1), (2), (3)",
			} {
				if _, err := np.Exec(sql); err != nil {
					t.Fatal(err)
				}
			}
			paths, err := np.Plan("SELECT * FROM t0 WHERE c0 = 2")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				if strings.Contains(strings.ToUpper(p), "INDEX") {
					t.Errorf("NoPlanner still chose an index path: %q", p)
				}
			}
		})
	}
}

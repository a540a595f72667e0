package sut_test

import (
	"reflect"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sut"
)

// TestDSNRoundTrip renders every combination of ablations, storage mode
// and fault set to a DSN and parses it back to the same session.
func TestDSNRoundTrip(t *testing.T) {
	faultSets := []*faults.Set{nil, faults.NewSet(faults.PartialIndexNotNull, faults.RtrimCompare)}
	for mask := 0; mask < 16; mask++ {
		for _, storage := range []string{"memory", "pager"} {
			for _, fs := range faultSets {
				s := sut.Session{
					Dialect:    dialect.All[mask%len(dialect.All)],
					Faults:     fs,
					NoPlanner:  mask&1 != 0,
					NoCompile:  mask&2 != 0,
					NoHashJoin: mask&4 != 0,
					NoHashAgg:  mask&8 != 0,
					Storage:    storage,
				}
				dsn := s.DSN()
				got, err := sut.ParseDSN(dsn)
				if err != nil {
					t.Fatalf("ParseDSN(%q): %v", dsn, err)
				}
				if !reflect.DeepEqual(got, s) {
					t.Errorf("ParseDSN(%q) = %+v, want %+v", dsn, got, s)
				}
				want := 0
				for m := mask; m != 0; m &= m - 1 {
					want++
				}
				if n := len(s.Disabled()); n != want {
					t.Errorf("%q: Disabled() names %d features, want %d", dsn, n, want)
				}
			}
		}
	}
	// The zero options render as the bare dialect.
	if dsn := (sut.Session{Dialect: dialect.MySQL}).DSN(); dsn != "mysql" {
		t.Errorf("bare session DSN = %q, want mysql", dsn)
	}
}

// TestParseDSNRejects pins the codec's error cases: unknown disable names,
// parameters, storage modes, faults and dialects.
func TestParseDSNRejects(t *testing.T) {
	for _, dsn := range []string{
		"sqlite?disable=sideways",
		"sqlite?disable=planner,sideways",
		"sqlite?rows=3",
		"sqlite?planner",
		"sqlite?storage=tape",
		"sqlite?storage=",
		"sqlite?fault=nope",
		"oracle",
	} {
		if s, err := sut.ParseDSN(dsn); err == nil {
			t.Errorf("ParseDSN(%q) = %+v, want an error", dsn, s)
		}
	}
}

// TestParseDSNMergesFaults checks that repeated fault= parameters merge
// into one set rather than the last one winning.
func TestParseDSNMergesFaults(t *testing.T) {
	s, err := sut.ParseDSN("sqlite?fault=sqlite.partial-index-not-null&disable=compile&fault=sqlite.rtrim-compare,sqlite.union-all-dedup")
	if err != nil {
		t.Fatal(err)
	}
	want := []faults.Fault{faults.PartialIndexNotNull, faults.RtrimCompare, faults.UnionAllDedup}
	for _, f := range want {
		if !s.Faults.Has(f) {
			t.Errorf("fault %s lost from merged set (have %v)", f, s.Faults.List())
		}
	}
	if n := len(s.Faults.List()); n != len(want) {
		t.Errorf("merged set has %d faults, want %d", n, len(want))
	}
	if !s.NoCompile {
		t.Error("disable=compile between fault params was dropped")
	}
}

// TestSessionDisable checks the -disable list parser: names trim, an empty
// list switches nothing off, and every table name is accepted.
func TestSessionDisable(t *testing.T) {
	var s sut.Session
	if err := s.Disable(""); err != nil || len(s.Disabled()) != 0 {
		t.Fatalf("empty list: err %v, disabled %v", err, s.Disabled())
	}
	if err := s.Disable(" hashagg , planner"); err != nil {
		t.Fatal(err)
	}
	if !s.NoHashAgg || !s.NoPlanner || s.NoCompile || s.NoHashJoin {
		t.Errorf("Disable(\" hashagg , planner\") = %+v", s)
	}
	var all sut.Session
	for _, name := range sut.Ablations() {
		if err := all.Disable(name); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(all.Disabled(), sut.Ablations()) {
		t.Errorf("Disabled() = %v, want every ablation %v", all.Disabled(), sut.Ablations())
	}
}

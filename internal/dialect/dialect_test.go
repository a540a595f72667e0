package dialect

import "testing"

func TestParseAndString(t *testing.T) {
	cases := map[string]Dialect{
		"sqlite": SQLite, "mysql": MySQL, "postgres": Postgres,
		"postgresql": Postgres, "pg": Postgres,
	}
	for s, want := range cases {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := Parse("oracle"); err == nil {
		t.Error("unknown dialect should fail")
	}
	if SQLite.String() != "sqlite" || Postgres.DisplayName() != "PostgreSQL" {
		t.Error("naming wrong")
	}
}

func TestFeatureFlags(t *testing.T) {
	if !MySQL.ConcatIsOr() || SQLite.ConcatIsOr() {
		t.Error("ConcatIsOr flags wrong")
	}
	if !MySQL.HasUnsigned() || SQLite.HasUnsigned() {
		t.Error("HasUnsigned flags wrong")
	}
	if !SQLite.LikeCaseInsensitive() || Postgres.LikeCaseInsensitive() {
		t.Error("LikeCaseInsensitive flags wrong")
	}
	if len(All) != 3 {
		t.Error("All should list three dialects")
	}
}

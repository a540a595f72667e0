package sut

import (
	"fmt"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
)

// ablations is the one name table of the engine features a Session can
// switch off. The DSN's disable= parameter and the CLIs' -disable flag
// spell features by these names; a new ablation adds a Session field and a
// row here.
var ablations = []struct {
	name string
	flag func(*Session) *bool
}{
	{"planner", func(s *Session) *bool { return &s.NoPlanner }},
	{"compile", func(s *Session) *bool { return &s.NoCompile }},
	{"hashjoin", func(s *Session) *bool { return &s.NoHashJoin }},
	{"hashagg", func(s *Session) *bool { return &s.NoHashAgg }},
}

// Ablations lists the names Disable accepts, in table order.
func Ablations() []string {
	out := make([]string, len(ablations))
	for i, a := range ablations {
		out[i] = a.name
	}
	return out
}

// Disable switches off the features named in a comma-separated list of
// Ablations names. An empty list switches off nothing.
func (s *Session) Disable(list string) error {
	if list == "" {
		return nil
	}
next:
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		for _, a := range ablations {
			if a.name == name {
				*a.flag(s) = true
				continue next
			}
		}
		return fmt.Errorf("sut: unknown feature %q to disable (want %s)", name, strings.Join(Ablations(), ", "))
	}
	return nil
}

// Disabled lists the features s switches off, in table order.
func (s Session) Disabled() []string {
	var out []string
	for _, a := range ablations {
		if *a.flag(&s) {
			out = append(out, a.name)
		}
	}
	return out
}

// DSN renders s as a data source name — the dialect, then its options as
// query parameters:
//
//	sqlite
//	mysql?fault=mysql.double-negation,mysql.set-option-error
//	sqlite?disable=planner,hashagg&storage=pager
//
// ParseDSN is its inverse. WireFidelity has no DSN form: a string-protocol
// client has wire fidelity by construction.
func (s Session) DSN() string {
	var params []string
	if !s.Faults.Empty() {
		var names []string
		for _, f := range s.Faults.List() {
			names = append(names, string(f))
		}
		params = append(params, "fault="+strings.Join(names, ","))
	}
	if off := s.Disabled(); len(off) > 0 {
		params = append(params, "disable="+strings.Join(off, ","))
	}
	if s.Storage != "" {
		params = append(params, "storage="+s.Storage)
	}
	if len(params) == 0 {
		return s.Dialect.String()
	}
	return s.Dialect.String() + "?" + strings.Join(params, "&")
}

// ParseDSN parses a data source name in the form Session.DSN renders.
// Repeated fault= parameters merge into one set; unknown faults, features,
// parameters and storage modes are errors.
func ParseDSN(dsn string) (Session, error) {
	name, query, _ := strings.Cut(dsn, "?")
	d, err := dialect.Parse(strings.TrimSpace(name))
	if err != nil {
		return Session{}, err
	}
	s := Session{Dialect: d}
	if query == "" {
		return s, nil
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "fault":
			if s.Faults == nil {
				s.Faults = faults.NewSet()
			}
			for _, fname := range strings.Split(v, ",") {
				f := faults.Fault(strings.TrimSpace(fname))
				if _, ok := faults.Lookup(f); !ok {
					return Session{}, fmt.Errorf("sut: unknown fault %q", fname)
				}
				s.Faults.Enable(f)
			}
		case "disable":
			if err := s.Disable(v); err != nil {
				return Session{}, err
			}
		case "storage":
			if v != "memory" && v != "pager" {
				return Session{}, fmt.Errorf("sut: storage=%q (want memory or pager)", v)
			}
			s.Storage = v
		default:
			return Session{}, fmt.Errorf("sut: unknown DSN parameter %q", k)
		}
	}
	return s, nil
}

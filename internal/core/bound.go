package core

import "repro/internal/sut"

// BoundTester is a Tester pinned to a caller-provided database under
// test, so the caller can inspect the backend afterwards (feature
// coverage for the Table 4 reproduction, shells, examples).
type BoundTester struct {
	*Tester
	db sut.DB
}

// NewTesterWithDB creates a tester that runs every database lifecycle
// against the given DB instead of opening fresh ones. The DB's session
// replaces cfg's.
func NewTesterWithDB(cfg Config, db sut.DB) *BoundTester {
	cfg.Session = db.Session()
	return &BoundTester{Tester: NewTester(cfg), db: db}
}

// DB exposes the bound database under test.
func (bt *BoundTester) DB() sut.DB { return bt.db }

// RunBoundDatabase is RunDatabase against the bound DB. Unlike
// RunDatabase it does not reset state between calls — repeated calls keep
// growing the same database, which is occasionally useful for coverage
// accumulation but not for campaigns.
func (bt *BoundTester) RunBoundDatabase() (*Bug, error) {
	return bt.runOn(bt.db)
}

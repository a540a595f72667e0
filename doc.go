// Package repro reproduces "Testing Database Engines via Pivoted Query
// Synthesis" (Rigger & Su, OSDI 2020) as a self-contained Go system: an
// embedded SQL engine substrate with three dialect profiles and an
// injectable-bug corpus, plus the PQS testing stack (generator, oracle
// interpreter, rectifier, containment/error/crash oracles, reducer, and
// campaign runner) and two baselines (a SQLsmith-style fuzzer and a
// RAGS-style differential tester).
//
// Testing oracles are pluggable (internal/oracle): beside PQS's pivot
// containment, the NoREC and TLP metamorphic oracles from the same
// research lineage validate whole result sets — NoREC compares an
// optimized WHERE against the unoptimized predicate projection, TLP
// recombines the p / NOT p / p IS NULL partitions with UNION ALL — and
// catch result-set and aggregate faults PQS is structurally blind to.
// Campaigns select oracles with `sqlancer-go -oracle=pqs,tlp,norec`
// (round-robin across databases); dbshell's `.oracle <name>` runs
// one-shot checks. See DESIGN.md "Metamorphic oracles".
//
// The tester stack talks to the database under test only through the
// backend-agnostic SUT boundary (internal/sut): open a database with
//
//	db, err := sut.Open("memengine", sut.Session{Dialect: dialect.SQLite})
//
// and swap "memengine" for "wire" to drive the same engine through
// database/sql instead. A shared conformance suite holds the two backends
// to identical behaviour.
//
// The engine evaluates query predicates through compiled expression
// programs (slot-bound closures, internal/eval's Compile); the
// Session.NoCompile option — `-disable compile` on the CLIs, DSN
// `disable=compile` — restores the tree-walk interpreter for A/B runs. See
// DESIGN.md "Compiled expression programs".
//
// Joins pick a per-level strategy — hash join, index lookup, or nested
// loop — from estimated cardinalities, with collation/affinity-correct
// key normalization and full ON re-verification on every candidate pair;
// EXPLAIN QUERY PLAN surfaces the choice. The Session.NoHashJoin option —
// `-disable hashjoin` on the CLIs, DSN `disable=hashjoin` — pins every
// level to the nested loop, and three injectable hash-join faults ride
// inside the ablated code. See DESIGN.md "Join execution & strategy
// selection". sut.Ablations lists every engine feature -disable accepts.
//
// Databases can live on a durable storage backend
// (internal/storage/pager): a page file plus write-ahead log with
// checksummed pages, crash recovery on open, and simulated-power-cut
// fault injection over deterministic, seed-replayable crash plans. The
// `recovery` oracle crashes databases mid-commit and checks that
// recovery restores exactly the committed (or atomically pre-statement)
// state; three injectable durability faults give it ground truth. Select
// it with `sqlancer-go -storage pager -oracle recovery`; dbshell's
// `.storage` prints the pager's work counters. See DESIGN.md "Durable
// storage & crash recovery".
//
// Sessions support real transactions: BEGIN stages writes against a
// private copy-on-write snapshot, COMMIT validates the transaction's
// read and write sets against concurrent commits (first-committer-wins,
// surfacing retryable conflict errors) and merges, ROLLBACK discards.
// The `serializability` oracle opens several sessions per database
// (`-sessions` fixes the count), executes generated transaction scripts
// under a seeded deterministic interleaving, and requires every history
// to match an equivalent serial order of its committed units; four
// injectable isolation faults (dirty read, lost update, write skew,
// rollback leak) are visible only to it. dbshell's `.begin`, `.commit`,
// and `.rollback` drive a transaction interactively. See DESIGN.md
// "Transactions & serializability checking".
//
// Campaigns execute on a shared work-stealing scheduler
// (runner.Scheduler) over pooled, resettable engine lifecycles: the
// engine's Reset/Snapshot facilities and sut.Pool let one engine serve
// many database lifecycles, and a whole fault corpus sweeps through one
// worker pool (`sqlancer-go -corpus`). Detections report the canonical
// lowest seed, so campaign results are identical at any worker count.
// See DESIGN.md "Campaign scheduler & engine lifecycle".
//
// cmd/benchreport regenerates every table and figure of the paper's
// evaluation and the design ablations; the root package holds the
// campaign and engine-path benchmarks with their ratio tripwires
// (bench_test.go), and the implementation lives under internal/ (see
// DESIGN.md for the map).
package repro

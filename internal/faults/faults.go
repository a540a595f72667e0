// Package faults defines the injectable-bug registry that substitutes for
// the real, unknown DBMS bugs of the paper. Each fault is a deterministic,
// individually-toggleable behaviour deviation transcribed from one of the
// paper's published bug listings or bug-class descriptions. A campaign
// enables one fault, runs PQS until an oracle fires, and scores the
// detection — giving the reproduction a measurable ground truth.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/dialect"
)

// Fault identifies one injectable bug.
type Fault string

// Oracle names the test oracle expected to detect a fault, matching the
// paper's Table 3 columns.
type Oracle string

// Oracle kinds.
const (
	OracleContainment Oracle = "contains"
	OracleError       Oracle = "error"
	OracleCrash       Oracle = "segfault"
	// OracleNoREC and OracleTLP mark faults only the metamorphic oracles
	// (the NoREC/TLP follow-on work in the same research lineage) can
	// observe: whole-result-set deviations PQS's single tracked pivot row
	// is structurally blind to.
	OracleNoREC Oracle = "norec"
	OracleTLP   Oracle = "tlp"
	// OracleRecovery marks durability faults only the recovery-equivalence
	// oracle can observe: they deviate between what the pager claims is
	// durably committed and what a crash-then-recover cycle actually
	// restores, which no query-result oracle ever sees.
	OracleRecovery Oracle = "recovery"
	// OracleSerializability marks isolation faults only the serializability
	// oracle can observe: they deviate between an interleaved multi-session
	// history and every equivalent serial order, which no single-session
	// oracle ever executes.
	OracleSerializability Oracle = "serializability"
)

// Class groups faults the way Section 4 of the paper groups bugs.
type Class string

// Bug classes from the paper's DBMS-specific overviews.
const (
	ClassIndex        Class = "index"        // index/lookup bugs (partial, collated, skip-scan)
	ClassOptimization Class = "optimization" // incorrect rewrite/optimization
	ClassTyping       Class = "typing"       // affinity/coercion/unsigned bugs
	ClassCorruption   Class = "corruption"   // database-state corruption (error oracle)
	ClassMaintenance  Class = "maintenance"  // VACUUM/REINDEX/REPAIR/CHECK/options
	ClassCrash        Class = "crash"        // simulated SEGFAULTs
	ClassSemantics    Class = "semantics"    // dialect-specific semantic bugs
	ClassDurability   Class = "durability"   // pager/WAL crash-recovery bugs
	ClassIsolation    Class = "isolation"    // transaction-isolation bugs
)

// Info is the registry metadata for one fault.
type Info struct {
	ID      Fault
	Dialect dialect.Dialect
	Class   Class
	// Oracle is the oracle expected to catch this fault.
	Oracle Oracle
	// Logic reports whether this is a logic bug (wrong result set) that a
	// crash-oriented fuzzer cannot observe — the paper's central claim.
	Logic bool
	// Paper cites the listing or section the fault is transcribed from.
	Paper string
	// Desc is a one-line description.
	Desc string
}

// SQLite-dialect faults.
const (
	// PartialIndexNotNull reproduces Listing 1: a partial index with a
	// `c NOT NULL` predicate is used for `c IS NOT <literal>` on the
	// incorrect assumption that the predicate is implied.
	PartialIndexNotNull Fault = "sqlite.partial-index-not-null"
	// NocaseUniqueIndex reproduces Listing 4: a NOCASE index on a
	// WITHOUT ROWID table's PK dedups case-variant rows.
	NocaseUniqueIndex Fault = "sqlite.nocase-unique-index"
	// RtrimCompare reproduces Listing 5: RTRIM collation mishandles the
	// shorter-is-prefix case during index equality lookup.
	RtrimCompare Fault = "sqlite.rtrim-compare"
	// SkipScanDistinct reproduces Listing 6: the skip-scan optimization
	// drops rows under DISTINCT after ANALYZE.
	SkipScanDistinct Fault = "sqlite.skip-scan-distinct"
	// LikeAffinityOpt reproduces Listing 7: the LIKE-to-equality
	// optimization misfires on columns with non-TEXT affinity.
	LikeAffinityOpt Fault = "sqlite.like-affinity-opt"
	// TextIntSubtract reproduces Listing 2: TEXT minus a huge integer
	// goes through float and loses precision.
	TextIntSubtract Fault = "sqlite.text-int-subtract"
	// RealPKCorrupt reproduces Listing 10: UPDATE OR REPLACE on a REAL
	// primary key corrupts the database image.
	RealPKCorrupt Fault = "sqlite.real-pk-corrupt"
	// ReindexUnique reproduces the REINDEX bugs of §4.4: REINDEX
	// recomputes a collated unique index with the wrong collation and
	// reports a spurious UNIQUE violation.
	ReindexUnique Fault = "sqlite.reindex-unique"
	// DoubleQuoteIndex reproduces Listing 8: a double-quoted string in
	// an index definition is rebound as a column after RENAME.
	DoubleQuoteIndex Fault = "sqlite.double-quote-index"
	// CaseSensitiveLikePragma reproduces Listing 9: flipping
	// case_sensitive_like then VACUUM leaves a LIKE expression index
	// inconsistent with the schema.
	CaseSensitiveLikePragma Fault = "sqlite.case-sensitive-like-pragma"
	// IsNotNullOpt: `NOT (x IS NULL)` is rewritten to TRUE for indexed
	// columns (an invented member of the §4.4 optimization class).
	IsNotNullOpt Fault = "sqlite.is-not-null-opt"
	// CollateIndexOrder: an index declared with a non-BINARY collation
	// is built in BINARY order, so range scans miss rows.
	CollateIndexOrder Fault = "sqlite.collate-index-order"
	// AffinityCompare: comparisons against INTEGER-affinity columns
	// skip applying affinity to the constant side.
	AffinityCompare Fault = "sqlite.affinity-compare"
	// RowidAliasCrash: resolving the rowid alias after RENAME COLUMN
	// dereferences a stale slot and crashes.
	RowidAliasCrash Fault = "sqlite.rowid-alias-crash"
	// RangeScanBoundary: the planner's index range scan treats inclusive
	// bounds as exclusive, dropping rows that sit exactly on a range
	// boundary (§4.4 optimization class: off-by-one in the seek target).
	RangeScanBoundary Fault = "sqlite.range-scan-boundary"
	// StaleIndexAfterUpdate: UPDATE rewrites the heap row but leaves the
	// index entries untouched, so index-driven access paths miss updated
	// rows (§4.4 class: stale index state).
	StaleIndexAfterUpdate Fault = "sqlite.stale-index-after-update"
	// PlannerCollationConfusion: the planner serves a collation-qualified
	// equality with an index ordered under a different collation, so the
	// lookup misses collation-equal key variants (§4.4 class: wrong index
	// chosen for the comparison collation).
	PlannerCollationConfusion Fault = "sqlite.planner-collation-confusion"

	// Metamorphic-only faults: each is gated on a query shape PQS never
	// generates (UNION ALL compounds, aggregates, star projections), so
	// the pivot-containment oracle is structurally blind to all four.

	// NullPartitionDrop: inside a UNION ALL chain, an arm whose WHERE root
	// is an IS NULL test contributes no rows — TLP's third partition (`p
	// IS NULL`) silently vanishes from the recombination.
	NullPartitionDrop Fault = "sqlite.null-partition-drop"
	// UnionAllDedup: UNION ALL deduplicates its concatenation the way
	// UNION does, dropping duplicate rows that must be preserved.
	UnionAllDedup Fault = "sqlite.union-all-dedup"
	// AggEmptyGroup: an aggregate whose filtered input is empty
	// materializes a phantom row — COUNT reports 1, SUM/MIN/MAX report 0
	// instead of NULL.
	AggEmptyGroup Fault = "sqlite.agg-empty-group"
	// NorecCountMismatch: a star-projection SELECT with a WHERE clause
	// drops its first matching row — exactly the optimized-query shape
	// NoREC compares against the unoptimized predicate projection.
	NorecCountMismatch Fault = "sqlite.norec-count-mismatch"

	// Hash-join faults (PR 8): each lives inside the hash-join operator,
	// so it only fires on join levels the planner routes through the hash
	// path — and vanishes entirely under disable=hashjoin.

	// HashJoinCollation: the hash key builder skips collation
	// canonicalization, so NOCASE/RTRIM-equal join-key variants land in
	// different buckets and their matches silently vanish (§4.4
	// collation class, transplanted into the join operator).
	HashJoinCollation Fault = "sqlite.hash-join-collation"
	// HashJoinNullKey: NULL join keys bucket under a shared sentinel and
	// skip residual verification, so NULL spuriously equals NULL in
	// filtered queries — extra rows PQS's containment check is
	// structurally blind to.
	HashJoinNullKey Fault = "sqlite.hash-join-null-key"

	// Hash-aggregation faults (PR 10): each lives inside the streaming
	// hash-aggregation / top-K operators, so it only fires on queries the
	// planner routes through those paths — and vanishes entirely under
	// disable=hashagg.

	// HashAggCollation: the hash-aggregation key builder folds TEXT group
	// keys through the source column's declared collation and skips the
	// full-comparison re-verification of bucket matches, so BINARY-distinct
	// NOCASE/RTRIM variants collapse into one group (§4.4 collation class,
	// transplanted into the aggregation operator).
	HashAggCollation Fault = "sqlite.hash-agg-collation"
	// AggAccumulatorNullSkip: the streaming SUM/AVG accumulator seeds
	// itself from a leading NULL as if it were 0 instead of skipping it,
	// flipping all-NULL aggregates from NULL to 0 in filtered queries —
	// exactly the null-ness deviation TLP's aggregate recombination checks.
	AggAccumulatorNullSkip Fault = "sqlite.agg-accumulator-null-skip"
)

// MySQL-dialect faults.
const (
	// MemoryEngineCast reproduces Listing 11: the MEMORY engine
	// evaluates CAST(... AS UNSIGNED) comparisons incorrectly.
	MemoryEngineCast Fault = "mysql.memory-engine-cast"
	// UnsignedCompare: comparing an UNSIGNED column with a negative
	// constant coerces the constant to unsigned (§4.5 class).
	UnsignedCompare Fault = "mysql.unsigned-compare"
	// NullSafeEqRange reproduces Listing 12: `<=>` against a constant
	// wider than the column type yields FALSE instead of comparing.
	NullSafeEqRange Fault = "mysql.null-safe-eq-range"
	// DoubleNegation reproduces Listing 13: NOT(NOT x) is folded to x,
	// which is wrong for non-boolean integers.
	DoubleNegation Fault = "mysql.double-negation"
	// SetOptionError reproduces Listing 3: setting a global option
	// fails with "Incorrect arguments to SET" on a deterministic subset
	// of values standing in for the paper's nondeterminism.
	SetOptionError Fault = "mysql.set-option-error"
	// CheckTableCrash reproduces Listing 14 / CVE-2019-2879: CHECK
	// TABLE ... FOR UPGRADE on a table with an expression index crashes.
	CheckTableCrash Fault = "mysql.check-table-crash"
	// TextDoubleBool: small doubles stored in TEXT columns evaluate to
	// FALSE in boolean context (§4.5 value-range class).
	TextDoubleBool Fault = "mysql.text-double-bool"
	// RepairTableTruncate: REPAIR TABLE drops the highest-rowid row and
	// reports corruption on the next integrity check.
	RepairTableTruncate Fault = "mysql.repair-table-truncate"
	// TinyintRangeClamp: out-of-range TINYINT comparisons clamp the
	// constant before comparing (§4.5 value-range class).
	TinyintRangeClamp Fault = "mysql.tinyint-range-clamp"
)

// PostgreSQL-dialect faults.
const (
	// InheritanceGroupBy reproduces Listing 15: GROUP BY collapses
	// parent/child rows that share the parent's PK value.
	InheritanceGroupBy Fault = "postgres.inheritance-group-by"
	// StatsBitmapset reproduces Listing 16: extended statistics plus an
	// expression index trip "negative bitmapset member not allowed".
	StatsBitmapset Fault = "postgres.stats-bitmapset"
	// IndexNullValue reproduces Listing 17: an index built after an
	// UPDATE raises "found unexpected null value in index".
	IndexNullValue Fault = "postgres.index-null-value"
	// VacuumOverflow reproduces Listing 18: VACUUM FULL re-evaluates an
	// expression index and fails with "integer out of range".
	VacuumOverflow Fault = "postgres.vacuum-overflow"
	// BoolIndexScan: a partial index on a boolean expression is
	// consulted with inverted polarity.
	BoolIndexScan Fault = "postgres.bool-index-scan"
	// StrictCastCrash: the planner crashes on a nested cast inside an
	// index expression (stand-in for the §4.6 crash duplicates).
	StrictCastCrash Fault = "postgres.strict-cast-crash"
	// LeftJoinDrop: LEFT JOIN behaves as INNER JOIN and drops unmatched
	// left rows (join-semantics class).
	LeftJoinDrop Fault = "postgres.left-join-drop"
	// HashLeftJoinDrop: the hash LEFT JOIN forgets to NULL-extend
	// unmatched preserved combos in filtered queries — they vanish
	// instead of surviving with NULLs (join-semantics class, hash-path
	// variant of left-join-drop that only TLP's filtered partitions see).
	HashLeftJoinDrop Fault = "postgres.hash-left-join-drop"
)

// Cross-dialect faults (injected into shared executor code; each campaign
// still runs them under a specific dialect).
const (
	// WhereTrueDrop: the row-filter loop skips the first matching row
	// when the WHERE clause's root is an OR over an indexed column.
	WhereTrueDrop Fault = "generic.where-true-drop"
	// DistinctCollation: DISTINCT dedups TEXT values under NOCASE even
	// when the column collation is BINARY.
	DistinctCollation Fault = "generic.distinct-collation"
	// JoinPredicatePushdown: a WHERE predicate referencing only the
	// right join table is pushed below the join and also filters
	// left-table rows.
	JoinPredicatePushdown Fault = "generic.join-predicate-pushdown"
	// OrderByLimitDrop: ORDER BY + LIMIT N returns N-1 rows when a sort
	// key contains NULL.
	OrderByLimitDrop Fault = "generic.order-by-limit-drop"
	// VacuumCorrupt: VACUUM breaks the storage checksum, so the next
	// statement reports a malformed database image.
	VacuumCorrupt Fault = "generic.vacuum-corrupt"
	// InsertVisibility: the most recently inserted row is invisible to
	// the next full-scan query.
	InsertVisibility Fault = "generic.insert-visibility"
	// TopKHeapBoundary: the bounded-heap top-K ORDER BY/LIMIT path evicts
	// the current k-th row when a rejected candidate ties it on every sort
	// key — the boundary row silently vanishes from the result.
	TopKHeapBoundary Fault = "generic.topk-heap-boundary"
)

// Durability faults, injected into the pager storage backend
// (internal/storage/pager). They are dormant unless a session runs with
// -storage=pager, and only the recovery-equivalence oracle — which crashes
// the database at a scheduled point and compares post-recovery state with
// the committed pre-crash state — can observe them. Registered under the
// SQLite home dialect (the pager is dialect-independent; campaigns enable
// them under any dialect).
const (
	// PagerLostFlush: Commit appends the WAL frames but skips the fsync,
	// so a statement is reported durably committed while its frames still
	// sit in the volatile write cache — a power cut silently loses
	// claimed-committed transactions.
	PagerLostFlush Fault = "pager.wal-lost-flush"
	// PagerTornPageAccept: recovery skips frame-checksum verification and
	// salvages the uncommitted WAL tail as an implicit commit, so a torn
	// or bit-flipped final write resurfaces as (corrupted) committed state
	// instead of being discarded.
	PagerTornPageAccept Fault = "pager.torn-page-accept"
	// PagerTruncatedReplay: recovery stops replaying the WAL after the
	// first commit frame, dropping every later committed transaction that
	// had not yet been checkpointed into the main database file.
	PagerTruncatedReplay Fault = "pager.wal-truncated-replay"
)

// Isolation faults, injected into the engine's transaction machinery
// (internal/engine txn state machine). They are dormant in single-session
// campaigns — every site requires an open transaction from one session
// overlapping statements from another — and only the serializability
// oracle, which executes interleaved multi-session histories and compares
// them against equivalent serial orders, can observe them. Registered
// under the SQLite home dialect (the txn machinery is dialect-independent;
// campaigns enable them under any dialect).
const (
	// TxnDirtyReadLeak: a read-only statement from a non-transactional
	// session skips the switch back to committed state and reads another
	// session's uncommitted working state — a classic dirty read.
	TxnDirtyReadLeak Fault = "engine.dirty-read-leak"
	// TxnLostUpdate: commit validation skips the write-write check (and
	// the eager write lock), so two overlapping transactions can both
	// commit writes to the same table and the later commit silently
	// clobbers the earlier one — a lost update.
	TxnLostUpdate Fault = "engine.lost-update"
	// TxnSnapshotSkewCommit: commit validation skips the read-set check,
	// degrading serializable optimistic concurrency to plain snapshot
	// isolation — overlapping transactions that read what the other wrote
	// both commit (write skew).
	TxnSnapshotSkewCommit Fault = "engine.snapshot-skew-commit"
	// TxnRollbackRestoreMiss: ROLLBACK restores the committed snapshot but
	// leaves the transaction's working version of its first written table
	// in place, so aborted writes leak into committed state.
	TxnRollbackRestoreMiss Fault = "engine.rollback-restore-miss"
)

// registry holds the metadata table.
var registry = map[Fault]Info{}

func register(i Info) {
	if _, dup := registry[i.ID]; dup {
		panic(fmt.Sprintf("faults: duplicate fault %q", i.ID))
	}
	registry[i.ID] = i
}

func init() {
	sq := dialect.SQLite
	my := dialect.MySQL
	pg := dialect.Postgres
	for _, i := range []Info{
		{PartialIndexNotNull, sq, ClassIndex, OracleContainment, true, "Listing 1", "partial index used for IS NOT <literal> via bogus implication"},
		{NocaseUniqueIndex, sq, ClassIndex, OracleContainment, true, "Listing 4", "NOCASE index dedups case-variant PK rows in WITHOUT ROWID table"},
		{RtrimCompare, sq, ClassIndex, OracleContainment, true, "Listing 5", "RTRIM collation equality wrong in index lookup"},
		{SkipScanDistinct, sq, ClassOptimization, OracleContainment, true, "Listing 6", "skip-scan drops rows under DISTINCT after ANALYZE"},
		{LikeAffinityOpt, sq, ClassOptimization, OracleContainment, true, "Listing 7", "LIKE optimization misfires on non-TEXT affinity"},
		{TextIntSubtract, sq, ClassTyping, OracleContainment, true, "Listing 2", "TEXT - huge int loses precision through float"},
		{RealPKCorrupt, sq, ClassCorruption, OracleError, false, "Listing 10", "UPDATE OR REPLACE on REAL PK corrupts database"},
		{ReindexUnique, sq, ClassMaintenance, OracleError, false, "§4.4", "REINDEX raises spurious UNIQUE constraint failure"},
		{DoubleQuoteIndex, sq, ClassSemantics, OracleContainment, true, "Listing 8", "double-quoted string in index rebinds to column after RENAME"},
		{CaseSensitiveLikePragma, sq, ClassMaintenance, OracleError, false, "Listing 9", "case_sensitive_like + VACUUM leaves malformed schema"},
		{IsNotNullOpt, sq, ClassOptimization, OracleContainment, true, "§4.4 class", "NOT(x IS NULL) rewritten to TRUE for indexed columns"},
		{CollateIndexOrder, sq, ClassIndex, OracleContainment, true, "§4.4 class", "collated index built in BINARY order misses range rows"},
		{AffinityCompare, sq, ClassTyping, OracleContainment, true, "§4.4 class", "constant side of comparison skips affinity conversion"},
		{RowidAliasCrash, sq, ClassCrash, OracleCrash, false, "§4.2 class", "rowid alias resolution crashes after RENAME COLUMN"},
		{RangeScanBoundary, sq, ClassIndex, OracleContainment, true, "§4.4 class", "index range scan drops rows on inclusive boundaries"},
		{StaleIndexAfterUpdate, sq, ClassIndex, OracleContainment, true, "§4.4 class", "UPDATE leaves index entries stale; index paths miss updated rows"},
		{PlannerCollationConfusion, sq, ClassIndex, OracleContainment, true, "§4.4 class", "planner uses an index whose collation mismatches the comparison"},
		{NullPartitionDrop, sq, ClassOptimization, OracleTLP, true, "NoREC/TLP class", "UNION ALL arm whose WHERE root is IS NULL returns no rows"},
		{UnionAllDedup, sq, ClassSemantics, OracleTLP, true, "NoREC/TLP class", "UNION ALL deduplicates its concatenation like UNION"},
		{AggEmptyGroup, sq, ClassSemantics, OracleTLP, true, "NoREC/TLP class", "aggregate over an empty filtered input returns a phantom value"},
		{NorecCountMismatch, sq, ClassOptimization, OracleNoREC, true, "NoREC/TLP class", "star-projection SELECT with WHERE drops its first matching row"},
		{HashJoinCollation, sq, ClassOptimization, OracleContainment, true, "§4.4 class", "hash join hashes NOCASE keys case-sensitively, dropping case-variant matches"},
		{HashJoinNullKey, sq, ClassOptimization, OracleTLP, true, "NoREC/TLP class", "hash join matches NULL keys spuriously in filtered queries"},
		{HashAggCollation, sq, ClassOptimization, OracleContainment, true, "§4.4 class", "hash aggregation folds TEXT group keys through the column collation, collapsing distinct groups"},
		{AggAccumulatorNullSkip, sq, ClassSemantics, OracleTLP, true, "NoREC/TLP class", "streaming SUM/AVG seeds its accumulator from a leading NULL instead of skipping it"},

		{MemoryEngineCast, my, ClassTyping, OracleContainment, true, "Listing 11", "MEMORY engine evaluates CAST AS UNSIGNED comparisons wrong"},
		{UnsignedCompare, my, ClassTyping, OracleContainment, true, "§4.5", "UNSIGNED column vs negative constant coerces the constant"},
		{NullSafeEqRange, my, ClassTyping, OracleContainment, true, "Listing 12", "<=> yields FALSE for out-of-range constants"},
		{DoubleNegation, my, ClassOptimization, OracleContainment, true, "Listing 13", "NOT(NOT x) folded to x for integers"},
		{SetOptionError, my, ClassMaintenance, OracleError, false, "Listing 3", "SET GLOBAL option fails with Incorrect arguments"},
		{CheckTableCrash, my, ClassCrash, OracleCrash, false, "Listing 14", "CHECK TABLE FOR UPGRADE crashes on expression index"},
		{TextDoubleBool, my, ClassTyping, OracleContainment, true, "§4.5", "small doubles in TEXT columns are FALSE in boolean context"},
		{RepairTableTruncate, my, ClassCorruption, OracleError, false, "§4.3 class", "REPAIR TABLE drops a row and corrupts the table"},
		{TinyintRangeClamp, my, ClassTyping, OracleContainment, true, "§4.5 class", "TINYINT comparisons clamp out-of-range constants"},

		{InheritanceGroupBy, pg, ClassSemantics, OracleContainment, true, "Listing 15", "GROUP BY collapses inherited rows sharing parent PK"},
		{StatsBitmapset, pg, ClassMaintenance, OracleError, false, "Listing 16", "extended stats + expression index → negative bitmapset member"},
		{IndexNullValue, pg, ClassIndex, OracleError, false, "Listing 17", "index built after UPDATE reports unexpected null value"},
		{VacuumOverflow, pg, ClassMaintenance, OracleError, false, "Listing 18", "VACUUM FULL fails with integer out of range"},
		{BoolIndexScan, pg, ClassIndex, OracleContainment, true, "§4.6 class", "partial boolean index consulted with inverted polarity"},
		{StrictCastCrash, pg, ClassCrash, OracleCrash, false, "§4.6 class", "planner crash on nested cast in index expression"},
		{LeftJoinDrop, pg, ClassSemantics, OracleContainment, true, "§4 class", "LEFT JOIN drops unmatched left rows"},
		{HashLeftJoinDrop, pg, ClassSemantics, OracleTLP, true, "§4 class", "hash LEFT JOIN drops unmatched preserved rows in filtered queries"},

		{WhereTrueDrop, sq, ClassOptimization, OracleContainment, true, "§4 class", "filter loop skips first matching row under OR of indexed column"},
		{DistinctCollation, sq, ClassSemantics, OracleContainment, true, "§4 class", "DISTINCT dedups case-insensitively on BINARY columns"},
		{JoinPredicatePushdown, my, ClassOptimization, OracleContainment, true, "§4 class", "predicate pushed across join filters wrong side"},
		{OrderByLimitDrop, pg, ClassOptimization, OracleContainment, true, "§4 class", "ORDER BY + LIMIT drops a row when sort key has NULL"},
		{VacuumCorrupt, sq, ClassCorruption, OracleError, false, "§4.4 class", "VACUUM corrupts the storage checksum"},
		{InsertVisibility, my, ClassSemantics, OracleContainment, true, "§4 class", "last inserted row invisible to next scan"},
		{TopKHeapBoundary, my, ClassOptimization, OracleContainment, true, "§4 class", "top-K ORDER BY/LIMIT evicts the k-th row when a rejected candidate ties on the sort key"},

		{PagerLostFlush, sq, ClassDurability, OracleRecovery, true, "§7 durability class", "Commit skips the WAL fsync; claimed-committed transactions vanish on crash"},
		{PagerTornPageAccept, sq, ClassDurability, OracleRecovery, true, "§7 durability class", "recovery skips checksum verification and salvages the torn WAL tail"},
		{PagerTruncatedReplay, sq, ClassDurability, OracleRecovery, true, "§7 durability class", "recovery stops after the first WAL commit frame, dropping later commits"},

		{TxnDirtyReadLeak, sq, ClassIsolation, OracleSerializability, true, "isolation class", "non-txn readers see another session's uncommitted working state"},
		{TxnLostUpdate, sq, ClassIsolation, OracleSerializability, true, "isolation class", "commit skips write-write validation; overlapping writers both commit"},
		{TxnSnapshotSkewCommit, sq, ClassIsolation, OracleSerializability, true, "isolation class", "commit skips read-set validation; write skew commits under SI"},
		{TxnRollbackRestoreMiss, sq, ClassIsolation, OracleSerializability, true, "isolation class", "ROLLBACK leaves the first written table's uncommitted version in place"},
	} {
		register(i)
	}
}

// Lookup returns the metadata for a fault.
func Lookup(f Fault) (Info, bool) {
	i, ok := registry[f]
	return i, ok
}

// All returns every registered fault, sorted by ID for determinism.
func All() []Info {
	out := make([]Info, 0, len(registry))
	for _, i := range registry {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ForDialect returns the faults whose home dialect is d, sorted by ID.
func ForDialect(d dialect.Dialect) []Info {
	var out []Info
	for _, i := range All() {
		if i.Dialect == d {
			out = append(out, i)
		}
	}
	return out
}

// Set is an enabled-fault set. The zero value has no faults enabled and is
// safe to use; a nil *Set behaves the same, so engine code can test
// injection sites unconditionally.
type Set struct {
	enabled map[Fault]bool
}

// NewSet returns a set with the given faults enabled.
func NewSet(fs ...Fault) *Set {
	s := &Set{enabled: make(map[Fault]bool, len(fs))}
	for _, f := range fs {
		s.enabled[f] = true
	}
	return s
}

// Has reports whether f is enabled. A nil set has nothing enabled.
func (s *Set) Has(f Fault) bool {
	if s == nil {
		return false
	}
	return s.enabled[f]
}

// Enable turns a fault on.
func (s *Set) Enable(f Fault) {
	if s.enabled == nil {
		s.enabled = map[Fault]bool{}
	}
	s.enabled[f] = true
}

// Disable turns a fault off.
func (s *Set) Disable(f Fault) { delete(s.enabled, f) }

// List returns the enabled faults, sorted.
func (s *Set) List() []Fault {
	if s == nil {
		return nil
	}
	out := make([]Fault, 0, len(s.enabled))
	for f := range s.enabled {
		out = append(out, f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Empty reports whether no fault is enabled.
func (s *Set) Empty() bool { return s == nil || len(s.enabled) == 0 }

package oracle_test

import (
	"testing"

	"repro/internal/faultmatrix"
	"repro/internal/faults"
	"repro/internal/oracle"
)

// TestCrossOracleFaultMatrix runs every registered fault (all 3 dialects)
// under each of PQS, TLP, and NoREC and asserts the expected detects and
// misses per oracle: error/crash faults fire in the database-generation
// phase every campaign shares, so every oracle catches them; metamorphic
// faults are caught by their oracle and are invisible to the others;
// durability and isolation faults stay dormant without a pager session or
// concurrent transactions; containment faults are PQS's home turf, with
// the metamorphic oracles as opportunistic backstops. The load-bearing
// cells are the metamorphic faults: they must be caught by their oracle and
// must NOT be caught by PQS — the structural blindness the metamorphic
// oracles exist to remove.
func TestCrossOracleFaultMatrix(t *testing.T) {
	faultmatrix.Run(t, faultmatrix.CrossOracle)
}

// TestOracleRouting checks ForFault's registry mapping.
func TestOracleRouting(t *testing.T) {
	cases := map[faults.Fault]string{
		faults.PartialIndexNotNull:    "pqs",
		faults.ReindexUnique:          "pqs",
		faults.RowidAliasCrash:        "pqs",
		faults.NullPartitionDrop:      "tlp",
		faults.UnionAllDedup:          "tlp",
		faults.AggEmptyGroup:          "tlp",
		faults.NorecCountMismatch:     "norec",
		faults.HashJoinCollation:      "pqs",
		faults.HashJoinNullKey:        "tlp",
		faults.HashLeftJoinDrop:       "tlp",
		faults.HashAggCollation:       "pqs",
		faults.AggAccumulatorNullSkip: "tlp",
		faults.TopKHeapBoundary:       "pqs",
		faults.PagerLostFlush:         "recovery",
		faults.PagerTornPageAccept:    "recovery",
		faults.PagerTruncatedReplay:   "recovery",
		faults.TxnDirtyReadLeak:       "serializability",
		faults.TxnLostUpdate:          "serializability",
		faults.TxnSnapshotSkewCommit:  "serializability",
		faults.TxnRollbackRestoreMiss: "serializability",
	}
	for f, want := range cases {
		info, ok := faults.Lookup(f)
		if !ok {
			t.Fatalf("fault %s not registered", f)
		}
		if got := oracle.ForFault(info); got != want {
			t.Errorf("ForFault(%s) = %q, want %q", f, got, want)
		}
	}
}

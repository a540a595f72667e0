package oracle_test

import (
	"testing"

	"repro/internal/faultmatrix"
	"repro/internal/faults"
	"repro/internal/oracle"
)

// TestCrossOracleFaultMatrix runs the fault matrix's pqs, tlp and norec
// rows, beside the routed cells whose oracle is one of the three; the
// cross-oracle rows in internal/faultmatrix say what each cell proves.
func TestCrossOracleFaultMatrix(t *testing.T) { faultmatrix.Run(t) }

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

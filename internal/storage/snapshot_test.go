package storage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlval"
)

func rowVals(t *testing.T, td *TableData, rowid int64) []sqlval.Value {
	t.Helper()
	r, ok := td.Get(rowid)
	if !ok {
		t.Fatalf("rowid %d missing", rowid)
	}
	return r.Vals
}

func TestTableSnapshotRestore(t *testing.T) {
	td := NewTableData()
	td.Insert([]sqlval.Value{sqlval.Int(1)})
	td.Insert([]sqlval.Value{sqlval.Int(2)})
	snap := td.Snapshot()
	if snap.Len() != 2 {
		t.Fatalf("snapshot rows = %d, want 2", snap.Len())
	}

	// Mutate every way the engine does: insert, delete, add a column.
	td.Insert([]sqlval.Value{sqlval.Int(3)})
	td.Delete(1)
	td.AddColumn(sqlval.Text("pad"))
	if td.Len() != 2 {
		t.Fatalf("live len = %d, want 2", td.Len())
	}

	td.Restore(snap)
	if td.Len() != 2 {
		t.Fatalf("restored len = %d, want 2", td.Len())
	}
	for rid, want := range map[int64]int64{1: 1, 2: 2} {
		vals := rowVals(t, td, rid)
		if len(vals) != 1 {
			t.Fatalf("rowid %d width %d after restore (AddColumn leaked through cow)", rid, len(vals))
		}
		if got := vals[0].Int64(); got != want {
			t.Errorf("rowid %d = %v, want %d", rid, vals[0], want)
		}
	}
	// Rowid allocation rewinds too: the next insert reuses rowid 3.
	r := td.Insert([]sqlval.Value{sqlval.Int(9)})
	if r.Rowid != 3 {
		t.Errorf("post-restore rowid = %d, want 3", r.Rowid)
	}
}

func TestTableSnapshotSurvivesRepeatedRestore(t *testing.T) {
	td := NewTableData()
	td.Insert([]sqlval.Value{sqlval.Int(1)})
	snap := td.Snapshot()
	for i := 0; i < 3; i++ {
		td.Insert([]sqlval.Value{sqlval.Int(int64(100 + i))})
		td.Delete(1)
		td.Restore(snap)
		if td.Len() != 1 {
			t.Fatalf("round %d: len = %d, want 1", i, td.Len())
		}
		if got := rowVals(t, td, 1)[0].Int64(); got != 1 {
			t.Fatalf("round %d: rowid 1 = %v, want 1", i, rowVals(t, td, 1)[0])
		}
	}
}

func TestInterleavedSnapshots(t *testing.T) {
	td := NewTableData()
	td.Insert([]sqlval.Value{sqlval.Int(1)})
	snapA := td.Snapshot()
	td.Insert([]sqlval.Value{sqlval.Int(2)})
	snapB := td.Snapshot()

	td.Restore(snapA)
	td.Insert([]sqlval.Value{sqlval.Int(99)}) // must not clobber snapB's view
	td.Restore(snapB)
	if td.Len() != 2 {
		t.Fatalf("snapB len = %d, want 2", td.Len())
	}
	if got := rowVals(t, td, 2)[0].Int64(); got != 2 {
		t.Errorf("snapB rowid 2 = %v, want 2 (append-after-restore aliasing)", rowVals(t, td, 2)[0])
	}
}

func TestTableReset(t *testing.T) {
	td := NewTableData()
	for i := 0; i < 10; i++ {
		td.Insert([]sqlval.Value{sqlval.Int(int64(i))})
	}
	td.Reset()
	if td.Len() != 0 {
		t.Fatalf("len after reset = %d", td.Len())
	}
	if r := td.Insert([]sqlval.Value{sqlval.Int(7)}); r.Rowid != 1 {
		t.Errorf("rowid after reset = %d, want 1", r.Rowid)
	}
}

func TestIndexSnapshotRestore(t *testing.T) {
	ix := NewIndexData([]sqlval.Collation{sqlval.CollNoCase}, []bool{false})
	ix.Insert([]sqlval.Value{sqlval.Text("a")}, 1)
	ix.Insert([]sqlval.Value{sqlval.Text("b")}, 2)
	snap := ix.Snapshot()
	if snap.Len() != 2 {
		t.Fatalf("snapshot len = %d", snap.Len())
	}

	ix.Insert([]sqlval.Value{sqlval.Text("A")}, 3) // shifts inside the prefix
	ix.Delete([]sqlval.Value{sqlval.Text("b")}, 2)
	ix.SetCollations([]sqlval.Collation{sqlval.CollBinary}) // REINDEX fault site
	ix.Restore(snap)

	if ix.Len() != 2 {
		t.Fatalf("restored len = %d, want 2", ix.Len())
	}
	if got := ix.Equal([]sqlval.Value{sqlval.Text("A")}); len(got) != 1 || got[0] != 1 {
		t.Errorf("NOCASE lookup after restore = %v, want [1] (collations not restored?)", got)
	}
	if got := ix.Equal([]sqlval.Value{sqlval.Text("b")}); len(got) != 1 || got[0] != 2 {
		t.Errorf("lookup b = %v, want [2]", got)
	}
}

func TestIndexReset(t *testing.T) {
	ix := NewIndexData([]sqlval.Collation{sqlval.CollBinary}, []bool{false})
	for i := int64(1); i <= 5; i++ {
		ix.Insert([]sqlval.Value{sqlval.Int(i)}, i)
	}
	ix.Reset([]sqlval.Collation{sqlval.CollNoCase}, []bool{true})
	if ix.Len() != 0 {
		t.Fatalf("len after reset = %d", ix.Len())
	}
	if got := ix.Collations(); len(got) != 1 || got[0] != sqlval.CollNoCase {
		t.Errorf("collations after reset = %v", got)
	}
}

// tableContent renders everything a TableSnapshot captures of a heap.
func tableContent(td *TableData) string {
	return fmt.Sprintf("next=%d rows=%v", td.NextRowid(), rowsContent(td.Rows()))
}

func rowsContent(rows []*Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%d:%v ", r.Rowid, r.Vals)
	}
	return b.String()
}

// indexContent renders everything an IndexSnapshot captures of an index.
func indexContent(ix *IndexData) string {
	return fmt.Sprintf("colls=%v descs=%v entries=%v", ix.colls, ix.descs, ix.entries)
}

// TestCleanSnapshotInvariants checks the clean-snapshot shortcut against
// every mutator: after Snapshot, a mutation and a Restore of that
// snapshot, the content must equal the snapshot's again. A mutator that
// forgot to clear the clean pointer would turn the Restore into a no-op
// and leave the mutation in place.
func TestCleanSnapshotInvariants(t *testing.T) {
	newTable := func() *TableData {
		td := NewTableData()
		td.Insert([]sqlval.Value{sqlval.Int(1)})
		td.Insert([]sqlval.Value{sqlval.Int(2)})
		return td
	}
	for _, tc := range []struct {
		name   string
		mutate func(*TableData)
	}{
		{"Insert", func(td *TableData) { td.Insert([]sqlval.Value{sqlval.Int(3)}) }},
		{"InsertWithRowid", func(td *TableData) { td.InsertWithRowid(10, []sqlval.Value{sqlval.Int(10)}) }},
		{"Delete", func(td *TableData) { td.Delete(1) }},
		{"DeleteLast", func(td *TableData) { td.DeleteLast() }},
		{"AddColumn", func(td *TableData) { td.AddColumn(sqlval.Text("pad")) }},
		{"SetNextRowid", func(td *TableData) { td.SetNextRowid(50) }},
		{"Reset", func(td *TableData) { td.Reset() }},
	} {
		t.Run("table/"+tc.name, func(t *testing.T) {
			td := newTable()
			s := td.Snapshot()
			want := tableContent(td)
			tc.mutate(td)
			if tableContent(td) == want {
				t.Fatal("mutation did not change the heap")
			}
			td.Restore(s)
			if got := tableContent(td); got != want {
				t.Errorf("after Restore: %s, want %s", got, want)
			}
		})
	}

	newIndex := func() *IndexData {
		ix := NewIndexData([]sqlval.Collation{sqlval.CollNoCase}, []bool{false})
		ix.Insert([]sqlval.Value{sqlval.Text("a")}, 1)
		ix.Insert([]sqlval.Value{sqlval.Text("b")}, 2)
		return ix
	}
	for _, tc := range []struct {
		name   string
		mutate func(*IndexData)
	}{
		{"Insert", func(ix *IndexData) { ix.Insert([]sqlval.Value{sqlval.Text("A")}, 3) }},
		{"Delete", func(ix *IndexData) { ix.Delete([]sqlval.Value{sqlval.Text("a")}, 1) }},
		{"DeleteRowid", func(ix *IndexData) { ix.DeleteRowid(2) }},
		{"Clear", func(ix *IndexData) { ix.Clear() }},
		{"SetCollations", func(ix *IndexData) { ix.SetCollations([]sqlval.Collation{sqlval.CollBinary}) }},
		{"Reset", func(ix *IndexData) { ix.Reset([]sqlval.Collation{sqlval.CollBinary}, []bool{true}) }},
	} {
		t.Run("index/"+tc.name, func(t *testing.T) {
			ix := newIndex()
			s := ix.Snapshot()
			want := indexContent(ix)
			tc.mutate(ix)
			if indexContent(ix) == want {
				t.Fatal("mutation did not change the index")
			}
			ix.Restore(s)
			if got := indexContent(ix); got != want {
				t.Errorf("after Restore: %s, want %s", got, want)
			}
		})
	}
}

// TestCleanSnapshotIdentity pins the sharing itself: an unchanged heap or
// index hands out the same snapshot again, and a Restore makes the
// restored snapshot the clean one.
func TestCleanSnapshotIdentity(t *testing.T) {
	td := NewTableData()
	td.Insert([]sqlval.Value{sqlval.Int(1)})
	s := td.Snapshot()
	if td.Snapshot() != s {
		t.Error("table: second Snapshot without a mutation returned a new snapshot")
	}
	td.Insert([]sqlval.Value{sqlval.Int(2)})
	if td.Snapshot() == s {
		t.Error("table: Snapshot after Insert returned the stale snapshot")
	}
	td.Restore(s)
	if td.Snapshot() != s {
		t.Error("table: Snapshot after Restore(s) did not return s")
	}

	ix := NewIndexData([]sqlval.Collation{sqlval.CollBinary}, []bool{false})
	ix.Insert([]sqlval.Value{sqlval.Int(1)}, 1)
	is := ix.Snapshot()
	if ix.Snapshot() != is {
		t.Error("index: second Snapshot without a mutation returned a new snapshot")
	}
	ix.Insert([]sqlval.Value{sqlval.Int(2)}, 2)
	if ix.Snapshot() == is {
		t.Error("index: Snapshot after Insert returned the stale snapshot")
	}
	ix.Restore(is)
	if ix.Snapshot() != is {
		t.Error("index: Snapshot after Restore(s) did not return s")
	}
}
